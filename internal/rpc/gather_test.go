package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// The gathered request (Async on a *Client): a request's head rides in
// its queue entry and its body leaves from the caller's slice. These
// tests pin that the body reaches the connection without a copy, and the
// borrow rule that makes that safe (Async's doc): once the call
// has returned, nothing reads the caller's slice again.

// overlaps reports whether p and q share memory.
func overlaps(p, q []byte) bool {
	if len(p) == 0 || len(q) == 0 {
		return false
	}
	p0, q0 := uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(unsafe.Pointer(unsafe.SliceData(q)))
	return p0 < q0+uintptr(len(q)) && q0 < p0+uintptr(len(p))
}

// recordConn passes writes through to a real connection and remembers
// every slice it was handed. It has no vectored write of its own, so a
// vectored frame reaches it one slice per Write, as the pieces a writev
// hands the kernel.
type recordConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (r *recordConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes = append(r.writes, p)
	r.mu.Unlock()
	return r.Conn.Write(p)
}

// TestGatheredWriteLeavesFromCallerBytes: a 256 KiB chunk write (an
// 8-byte offset head, the chunk as body) reaches the connection as the
// frame's header and head, then the caller's own slice — no user-space
// copy of a payload byte on the client — and the bytes land whole.
func TestGatheredWriteLeavesFromCallerBytes(t *testing.T) {
	m, addr := startStoreServer(t, 1<<20)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordConn{Conn: conn}
	c := newClient(rc)
	defer c.Close()

	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	var head [8]byte
	binary.BigEndian.PutUint64(head[:], 4096)
	f := Async(c, nil, methStore, head[:], data)
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	f.Release()
	if !bytes.Equal(m.bytes(4096, len(data)), data) {
		t.Fatal("the store holds other bytes than the caller wrote")
	}

	rc.mu.Lock()
	defer rc.mu.Unlock()
	var aliased, other int
	for _, w := range rc.writes {
		if overlaps(w, data) {
			if unsafe.SliceData(w) != unsafe.SliceData(data) || len(w) != len(data) {
				t.Errorf("a write of %d bytes took part of the caller's slice", len(w))
			}
			aliased += len(w)
		} else {
			other += len(w)
		}
	}
	if aliased != len(data) || other != frameHeaderLen+len(head) {
		t.Errorf("the connection was handed %d bytes of the caller's slice and %d others; want %d and %d (header and head): every body byte from where it lies, none copied",
			aliased, other, len(data), frameHeaderLen+len(head))
	}
}

// scribble is what a caller writes over its slice once its call has
// returned; the slice's own pattern never holds it.
const scribble = 0xEE

// gateConn is a client connection whose writes the test controls. A
// write the gate holds (every write while stallAll is set, otherwise one
// of the watched body) reads the first half of its bytes, blocks until
// the gate opens, then reads the rest — as the kernel copies a large
// write while the call is in flight. Any watched byte read after the
// caller scribbled over its slice is counted in late. Nothing is ever
// read back: there is no server, only a peer the test can kill.
type gateConn struct {
	body     []byte
	stallAll bool

	open      chan struct{}
	stalled   chan struct{} // closed when the first held write blocks
	stallOnce sync.Once

	scribbled atomic.Bool
	late      atomic.Int64

	trailed   chan struct{} // closed once a write carries the trailer
	trailOnce sync.Once

	dead atomic.Bool // closed or killed: writes fail after the gate
	pr   *io.PipeReader
	pw   *io.PipeWriter
}

func newGateConn(body []byte, stallAll bool) *gateConn {
	for i := range body {
		body[i] = byte(i % 200)
	}
	pr, pw := io.Pipe()
	return &gateConn{body: body, stallAll: stallAll, open: make(chan struct{}), stalled: make(chan struct{}),
		trailed: make(chan struct{}), pr: pr, pw: pw}
}

// trailer is the payload of the frame a test queues last.
const trailer = "trailer-frame"

// read is what the kernel does to p: it reads every byte.
func (g *gateConn) read(p []byte) {
	if !overlaps(p, g.body) {
		return
	}
	if g.scribbled.Load() || bytes.IndexByte(p, scribble) >= 0 {
		g.late.Add(1)
	}
}

func (g *gateConn) Write(p []byte) (int, error) {
	if g.stallAll || overlaps(p, g.body) {
		g.read(p[:len(p)/2])
		g.stallOnce.Do(func() { close(g.stalled) })
		<-g.open
		g.read(p[len(p)/2:])
	} else {
		g.read(p)
	}
	if bytes.Contains(p, []byte(trailer)) {
		g.trailOnce.Do(func() { close(g.trailed) })
	}
	if g.dead.Load() {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func (g *gateConn) Read(p []byte) (int, error) { return g.pr.Read(p) }

func (g *gateConn) Close() error {
	g.dead.Store(true)
	return g.pr.Close()
}

// kill is the peer dying: reads see the end of the stream, writes fail.
func (g *gateConn) kill() {
	g.dead.Store(true)
	g.pw.CloseWithError(io.EOF)
}

// overwrite is the caller reusing its slice once the call has returned.
func (g *gateConn) overwrite() {
	g.scribbled.Store(true)
	for i := range g.body {
		g.body[i] = scribble
	}
}

func (g *gateConn) LocalAddr() net.Addr              { return nil }
func (g *gateConn) RemoteAddr() net.Addr             { return nil }
func (g *gateConn) SetDeadline(time.Time) error      { return nil }
func (g *gateConn) SetReadDeadline(time.Time) error  { return nil }
func (g *gateConn) SetWriteDeadline(time.Time) error { return nil }

// TestGatheredBorrowHolds: a gathered 1 MiB write fails four ways — its
// context is cancelled while the frame is queued and while the flusher
// writes it, the client is closed mid-body, the peer dies mid-body — and
// in each the caller scribbles over its slice as soon as the call has
// returned. No byte of the slice may reach the connection after that: a
// queued frame is withdrawn unsent, and a call whose frame is being
// written returns only once that write has ended.
func TestGatheredBorrowHolds(t *testing.T) {
	for _, tc := range []struct {
		name string
		// queued: the flusher is held on a lead frame, so the write waits
		// in the queue and its cancellation must return before the gate
		// opens.
		queued bool
		// fail makes the call fail and returns what waits for the failure
		// to finish.
		fail func(c *Client, g *gateConn, cancel context.CancelFunc) (wait func())
	}{
		{"cancel-queued", true, func(_ *Client, _ *gateConn, cancel context.CancelFunc) func() {
			cancel()
			return func() {}
		}},
		{"cancel-writing", false, func(_ *Client, _ *gateConn, cancel context.CancelFunc) func() {
			cancel()
			return func() {}
		}},
		{"close-mid-body", false, func(c *Client, _ *gateConn, _ context.CancelFunc) func() {
			closed := make(chan struct{})
			go func() {
				c.Close()
				close(closed)
			}()
			return func() { <-closed }
		}},
		{"peer-dies-mid-body", false, func(_ *Client, g *gateConn, _ context.CancelFunc) func() {
			g.kill()
			return func() {}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGateConn(make([]byte, 1<<20), tc.queued)
			c := newClient(g)
			defer c.Close()
			if tc.queued {
				c.CallAsyncCtx(nil, methEcho, []byte("lead"))
				<-g.stalled // the flusher holds the lead frame
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var head [8]byte
			f := Async(c, ctx, methStore, head[:], g.body)
			<-g.stalled // or the flusher is mid-body
			wait := tc.fail(c, g, cancel)

			returned := make(chan error, 1)
			go func() {
				_, err := f.WaitCtx(ctx)
				returned <- err
			}()
			// A withdrawn frame's call returns at once, so it gets all the
			// time a loaded box may need; any other call must not return
			// while the gate is shut, and a broken one returns at once.
			window := 50 * time.Millisecond
			if tc.queued {
				window = 5 * time.Second
			}
			var err error
			select {
			case err = <-returned:
				// Returned with the gate shut: right for a withdrawn frame,
				// and for any other a call that let its body go early —
				// which the scribble below then shows.
				g.overwrite()
				if !tc.queued {
					t.Error("the call returned while the flusher was still writing its body")
				}
			case <-time.After(window):
				if tc.queued {
					t.Error("a cancelled call whose frame was still queued waited for the flusher")
				}
			}
			close(g.open)
			if !g.scribbled.Load() {
				err = <-returned
				g.overwrite()
			}
			if err == nil {
				t.Fatal("the failed call returned no error")
			}
			f.Release()
			wait()
			if tc.name == "cancel-queued" || tc.name == "cancel-writing" {
				// The connection lives on: a frame queued now is written
				// after anything still queued from before the failure, so
				// once it is out, a frame that should have been withdrawn
				// has been read too.
				c.CallAsyncCtx(nil, methEcho, []byte(trailer))
				select {
				case <-g.trailed:
				case <-time.After(5 * time.Second):
					t.Fatal("the flusher never wrote a frame queued after the failed call")
				}
			}
			c.Close()
			if n := g.late.Load(); n != 0 {
				t.Errorf("%d writes read the caller's slice after its call had returned", n)
			}
		})
	}
}
