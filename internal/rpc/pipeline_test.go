// The pipelining/batching test wall: async futures, batch coalescing on
// a real connection behind a stalled write, Close-vs-in-flight semantics,
// mixed-mode and admission-cap stress hammers (run under -race by `make
// race`), and the zero-allocation guard for the batched send path.
package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/telemetry"
)

func TestCallAsyncPipelinesOnOneConnection(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 64
	futures := make([]*Future, n)
	for i := range futures {
		futures[i] = c.CallAsyncCtx(nil, methEcho, []byte(fmt.Sprintf("req-%d", i)))
	}
	for i, f := range futures {
		resp, err := f.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want := fmt.Sprintf("req-%d", i); string(resp) != want {
			t.Fatalf("call %d: resp %q, want %q (reply fan-out misrouted)", i, resp, want)
		}
	}
	st := c.Stats()
	if st.Pending != 0 || st.Started != st.Completed {
		t.Fatalf("leaked pending calls: %+v", st)
	}
	// Waiting again returns the same cached result.
	if resp, err := futures[0].Wait(); err != nil || string(resp) != "req-0" {
		t.Fatalf("second Wait changed the result: %q %v", resp, err)
	}
}

// stallConn is a client connection whose first Write blocks until
// release is closed, so every frame queued meanwhile is waiting in the
// batcher when the flusher comes back: the next flush is deterministic.
type stallConn struct {
	net.Conn
	once    sync.Once
	stalled chan struct{} // closed once the first Write is blocked
	release chan struct{}
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.once.Do(func() {
		close(c.stalled)
		<-c.release
	})
	return c.Conn.Write(p)
}

// stalledClient runs a client over conn through a stallConn and issues
// one lead echo call under ctx; it returns once the flusher is blocked
// writing that call. release lets the flusher go on; cleanup calls it
// too, so a failed test does not leave Close waiting on the stalled write.
func stalledClient(t *testing.T, conn net.Conn, ctx context.Context) (c *Client, lead *Future, release func()) {
	t.Helper()
	sc := &stallConn{Conn: conn, stalled: make(chan struct{}), release: make(chan struct{})}
	c = newClient(sc)
	var once sync.Once
	release = func() { once.Do(func() { close(sc.release) }) }
	t.Cleanup(func() { c.Close() })
	t.Cleanup(release) // cleanups run last-in first-out: release before Close
	lead = c.CallAsyncCtx(ctx, methEcho, []byte("lead"))
	<-sc.stalled
	return c, lead, release
}

// readCountConn records where in the stream each Read that returned
// bytes began.
type readCountConn struct {
	net.Conn
	mu     sync.Mutex
	off    int
	starts []int
}

func (c *readCountConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.starts = append(c.starts, c.off)
		c.off += n
		c.mu.Unlock()
	}
	return n, err
}

// TestStalledWriteBatchesQueuedCalls pins the flush policy: every call
// queued while the connection's one write is in flight leaves in a single
// packed write right after it, and the server takes that run in one read:
// its read buffer holds the whole run. A net.Pipe hands each write to the
// reader whole, but no more than one write per read, so the count is
// exact.
func TestStalledWriteBatchesQueuedCalls(t *testing.T) {
	s := NewServer()
	s.Handle(methEcho, func(p []byte) ([]byte, error) { return p, nil })
	t.Cleanup(func() { s.Close() })
	cli, srv := net.Pipe()
	rc := &readCountConn{Conn: srv}
	if !s.serve(rc) {
		t.Fatal("a new server refused a connection")
	}
	c, lead, release := stalledClient(t, cli, nil)
	const queued = 8
	futures := make([]*Future, queued)
	for i := range futures {
		futures[i] = c.CallAsyncCtx(nil, methEcho, []byte{byte(i)})
	}
	release()
	if resp, err := lead.Wait(); err != nil || string(resp) != "lead" {
		t.Fatalf("lead call: %q, %v", resp, err)
	}
	for i, f := range futures {
		if resp, err := f.Wait(); err != nil || !bytes.Equal(resp, []byte{byte(i)}) {
			t.Fatalf("call %d: %v, %v", i, resp, err)
		}
	}
	st := c.Stats()
	if st.FramesSent != 2 || st.BatchesSent != 1 || st.BatchedCalls != queued || st.MaxBatch != queued {
		t.Fatalf("stats %+v: want the lead frame, then one batch of all %d queued calls", st, queued)
	}
	const leadLen = frameHeaderLen + len("lead")
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var runReads int
	for _, at := range rc.starts {
		if at >= leadLen {
			runReads++
		}
	}
	if want := leadLen + queued*(frameHeaderLen+1); rc.off != want || runReads != 1 {
		t.Fatalf("the server read %d bytes in reads starting at %v, the run in %d reads; want %d bytes, the run in 1 read", rc.off, rc.starts, runReads, want)
	}
}

func TestTracedCallsSurviveBatching(t *testing.T) {
	s, addr := startTestServer(t)
	tr := telemetry.NewTracer(telemetry.TracerConfig{SlowOpNS: -1})
	s.SetTracer(tr)
	parent := telemetry.SpanContext{Trace: 7777, Span: 42}
	ctx := telemetry.ContextWithSpan(context.Background(), parent)
	c, lead, release := stalledClient(t, rawDial(t, addr), ctx)
	const callers = 4
	futures := []*Future{lead}
	for i := 0; i < callers; i++ {
		futures = append(futures, c.CallAsyncCtx(ctx, methEcho, []byte("traced")))
	}
	release()
	for _, f := range futures {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.BatchedCalls != callers {
		t.Fatalf("traced calls were not batched: %+v", st)
	}
	spans := tr.Spans()
	if len(spans) != len(futures) {
		t.Fatalf("server recorded %d spans, want %d", len(spans), len(futures))
	}
	for _, sp := range spans {
		if sp.Trace != parent.Trace || sp.Parent != parent.Span {
			t.Fatalf("batched traced request lost its span parent: %+v", sp)
		}
	}
}

// TestCloseFailsInflightFutures pins the Close contract: every pending
// future resolves with an error wrapping ErrClosed — no blocked waiters,
// no pending-table leak.
func TestCloseFailsInflightFutures(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	s.Handle(methEcho, func(p []byte) ([]byte, error) {
		<-block
		return p, nil
	})
	defer close(block)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	futures := make([]*Future, n)
	for i := range futures {
		futures[i] = c.CallAsyncCtx(nil, methEcho, []byte("stuck"))
	}
	for c.Stats().Pending < n {
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.readDone:
	default:
		t.Fatal("Close returned with the read loop still running: it can outlive its test")
	}
	for i, f := range futures {
		if _, err := f.Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("future %d after Close: %v, want ErrClosed", i, err)
		}
	}
	st := c.Stats()
	if st.Pending != 0 || st.Started != st.Completed {
		t.Fatalf("Close leaked pending entries: %+v", st)
	}
	// A call issued after Close fails fast the same way.
	if _, err := c.CallAsyncCtx(nil, methEcho, nil).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close call: %v, want ErrClosed", err)
	}
}

// TestStressMixedCallsWithClose hammers one multiplexed connection with
// mixed Call/CallAsyncCtx from many goroutines while the client closes
// midway: every call must resolve exactly once — a value or an error
// wrapping ErrClosed — and the pending table must drain to zero.
func TestStressMixedCallsWithClose(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		opsEach    = 300
	)
	var started sync.WaitGroup
	var wg sync.WaitGroup
	var oks, closedErrs, badErrs atomic.Uint64
	started.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			started.Wait()
			for i := 0; i < opsEach; i++ {
				payload := []byte{byte(g), byte(i), byte(i >> 8)}
				var resp []byte
				var err error
				if i%3 == 0 {
					f := c.CallAsyncCtx(nil, methEcho, payload)
					resp, err = f.Wait()
					if r2, e2 := f.Wait(); !bytes.Equal(r2, resp) || !errors.Is(e2, err) && e2 != err {
						t.Error("future changed its result on re-wait")
					}
				} else {
					resp, err = c.Call(methEcho, payload)
				}
				switch {
				case err == nil:
					if !bytes.Equal(resp, payload) {
						t.Errorf("goroutine %d op %d: reply misrouted: %v", g, i, resp)
					}
					oks.Add(1)
				case errors.Is(err, ErrClosed):
					closedErrs.Add(1)
				default:
					badErrs.Add(1)
					t.Errorf("goroutine %d op %d: unexpected error %v", g, i, err)
				}
			}
		}()
	}
	// Close partway through the hammering.
	time.Sleep(5 * time.Millisecond)
	_ = c.Close()
	wg.Wait()
	if got := oks.Load() + closedErrs.Load() + badErrs.Load(); got != goroutines*opsEach {
		t.Fatalf("ops accounted %d, want %d (a call resolved zero or twice)", got, goroutines*opsEach)
	}
	if closedErrs.Load() == 0 {
		t.Logf("close landed after all ops; rerun covers the race window")
	}
	st := c.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending table leaked %d entries: %+v", st.Pending, st)
	}
	if st.Started != st.Completed {
		t.Fatalf("started %d != completed %d: %+v", st.Started, st.Completed, st)
	}
}

// TestBatchedSendPathZeroAllocs pins the batched hot path: assembling
// and writing a multi-frame batch reuses the flusher's scratch buffer
// and allocates nothing in steady state.
func TestBatchedSendPathZeroAllocs(t *testing.T) {
	b := &batcher{w: io.Discard}
	entries := make([]sendEntry, 16)
	payload := bytes.Repeat([]byte{0xAB}, 256)
	for i := range entries {
		entries[i] = sendEntry{kind: kindRequest, method: methEcho, id: uint64(i + 1), payload: payload}
	}
	entries[3].kind = kindRequest | flagTraced
	entries[3].sc = telemetry.SpanContext{Trace: 1, Span: 2}
	if err := b.writeBatch(entries); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := b.writeBatch(entries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched send path allocates %.1f times per flush, want 0", allocs)
	}
}
