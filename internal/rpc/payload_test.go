package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// TestReadPayloadErrors: a payload read in several steps comes back
// whole, a frame cut anywhere fails with no payload, and a header that
// claims more than MaxPayload is refused before any payload is read.
func TestReadPayloadErrors(t *testing.T) {
	want := make([]byte, 3*readStep+5000)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var w bytes.Buffer
	if err := writeFrame(&w, &sendEntry{kind: kindResponse, method: 1, id: 1, payload: want}); err != nil {
		t.Fatal(err)
	}
	frame := w.Bytes()
	if _, got, err := readFrame(iotest.HalfReader(bytes.NewReader(frame))); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a %d-byte payload read in halves: %d bytes, %v", len(want), len(got), err)
	}
	for cut := 0; cut < len(frame); cut += 997 {
		if _, payload, err := readFrame(bytes.NewReader(frame[:cut])); err == nil || payload != nil {
			t.Fatalf("truncated at %d: err %v, payload of %d bytes", cut, err, len(payload))
		}
	}
	over := append([]byte(nil), frame[:frameHeaderLen]...)
	over[10], over[11], over[12], over[13] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, payload, err := readFrame(bytes.NewReader(over)); err == nil || payload != nil {
		t.Fatalf("over-long frame: err %v, payload of %d bytes", err, len(payload))
	}
}

// readStartConn counts the reads started on its connection.
type readStartConn struct {
	net.Conn
	started atomic.Int64
}

func (c *readStartConn) Read(p []byte) (int, error) {
	c.started.Add(1)
	return c.Conn.Read(p)
}

// waitReads polls until every conn has started n reads: the read loop
// behind it has taken what came before and waits for more.
func waitReads(t *testing.T, n int64, conns ...*readStartConn) {
	t.Helper()
	for _, c := range conns {
		for deadline := time.Now().Add(5 * time.Second); c.started.Load() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("%d reads started, want %d", c.started.Load(), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// heapInuse is the heap's in-use bytes once the collector has run.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// claimHeader is a frame header of kind for id that claims MaxPayload.
func claimHeader(kind, method byte, id uint64) []byte {
	h := rawFrame(kind, method, id, nil)
	binary.BigEndian.PutUint32(h[10:], MaxPayload)
	return h
}

// TestBareHeaderCommitsOneStep: a peer that sends only a frame header
// claiming MaxPayload holds one read step of the server's memory while
// the server waits for the rest, not the 16 MiB it claims.
func TestBareHeaderCommitsOneStep(t *testing.T) {
	const conns = 4
	s := NewServer()
	defer s.Close()
	var peers [conns]net.Conn
	var served [conns]*readStartConn
	for i := range peers {
		cli, srv := net.Pipe()
		defer cli.Close()
		peers[i], served[i] = cli, &readStartConn{Conn: srv}
		if !s.serve(served[i]) {
			t.Fatal("a new server refused a connection")
		}
	}
	waitReads(t, 1, served[:]...)
	before := heapInuse()
	for i, p := range peers {
		if _, err := p.Write(claimHeader(kindRequest, 99, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitReads(t, 2, served[:]...)
	grew := heapInuse() - before
	t.Logf("%d bare headers claiming %d bytes each: heap in use grew %d bytes", conns, MaxPayload, grew)
	if grew >= 1<<20 {
		t.Errorf("%d bare headers claiming MaxPayload grew the server's heap by %d bytes, want under 1 MiB", conns, grew)
	}
}

// TestBareReplyHeaderCommitsOneStep is the client's twin: a reply header
// that claims MaxPayload for a pending call with no destination, then a
// stall, holds one read step of the client's memory.
func TestBareReplyHeaderCommitsOneStep(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	rc := &readStartConn{Conn: cli}
	c := newClient(rc)
	defer c.Close()
	f := c.CallAsyncCtx(nil, methEcho, []byte("x"))
	h, _, err := readFrame(srv)
	if err != nil {
		t.Fatal(err)
	}
	waitReads(t, 1, rc)
	before := heapInuse()
	if _, err := srv.Write(claimHeader(kindResponse, methEcho, h.id)); err != nil {
		t.Fatal(err)
	}
	waitReads(t, 2, rc)
	grew := heapInuse() - before
	t.Logf("a bare reply header claiming %d bytes: heap in use grew %d bytes", MaxPayload, grew)
	if grew >= 1<<20 {
		t.Errorf("a bare reply header claiming MaxPayload grew the client's heap by %d bytes, want under 1 MiB", grew)
	}
	c.Close()
	if _, err := f.Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("the stalled call after Close: %v, want ErrClosed", err)
	}
}
