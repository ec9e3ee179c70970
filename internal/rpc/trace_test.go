// Tests for cross-process trace propagation (kind-4 frames), the rule
// for untraced requests (kept only when failed or slow), and per-method
// dispatch stats.
package rpc

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"

	"github.com/lmp-project/lmp/internal/telemetry"
)

// newTracedServer serves three methods under a tracer with slow-op
// classification off: 7 echoes and 8 fails on handler goroutines, and
// 9 is a Receiver that fails on an empty body. onSlow, if set, is the
// tracer's slow-op hook.
func newTracedServer(t *testing.T, onSlow func(telemetry.Span)) (*Server, *telemetry.Tracer, string) {
	t.Helper()
	s := NewServer()
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SlowOpNS: -1, OnSlowOp: onSlow})
	s.SetTracer(tracer)
	s.Handle(7, func(p []byte) ([]byte, error) { return append([]byte("ok:"), p...), nil })
	s.NameMethod(7, "rpc.echo")
	s.Handle(8, func(p []byte) ([]byte, error) { return nil, errors.New("boom") })
	s.NameMethod(8, "rpc.fail")
	s.HandleReceive(9, 0, func(_ []byte, _ io.Reader, n int) ([]byte, error) {
		if n == 0 {
			return nil, errors.New("empty body")
		}
		return nil, nil
	})
	s.NameMethod(9, "rpc.recv")
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, tracer, addr
}

// spanLog keeps the slow ops a tracer's OnSlowOp hook is handed.
type spanLog struct {
	mu   sync.Mutex
	slow []telemetry.Span
}

func (l *spanLog) add(s telemetry.Span) {
	l.mu.Lock()
	l.slow = append(l.slow, s)
	l.mu.Unlock()
}

func (l *spanLog) slowOps() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ops []string
	for _, s := range l.slow {
		ops = append(ops, s.Op)
	}
	return ops
}

func TestTracedRequestPropagatesSpan(t *testing.T) {
	_, tracer, addr := newTracedServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := telemetry.ContextWithSpan(context.Background(),
		telemetry.SpanContext{Trace: 42, Span: 9000})
	resp, err := c.CallCtx(ctx, 7, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok:hi" {
		t.Fatalf("resp = %q", resp)
	}
	spans := tracer.Spans()
	if len(spans) != 1 {
		t.Fatalf("server recorded %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Op != "rpc.echo" || sp.Trace != 42 || sp.Parent != 9000 {
		t.Fatalf("span = %+v, want op rpc.echo in trace 42 under span 9000", sp)
	}
	if sp.Bytes != len("ok:hi") {
		t.Fatalf("span bytes = %d, want %d", sp.Bytes, len("ok:hi"))
	}
}

// TestUntracedRequestLeavesNoSpan: an untraced request that succeeds
// under the slow-op threshold is counted but leaves no span behind, on a
// handler goroutine and on a Receiver alike, bare or batched.
func TestUntracedRequestLeavesNoSpan(t *testing.T) {
	s, tracer, addr := newTracedServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 100
	var futures []*Future
	for i := 0; i < n; i++ {
		futures = append(futures, c.CallAsyncCtx(nil, 7, []byte("x")), c.CallAsyncCtx(nil, 9, []byte("x")))
	}
	for _, f := range futures {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tracer.Published(); got != 0 {
		t.Fatalf("%d untraced fast requests published %d spans, want 0", 2*n, got)
	}
	if spans := tracer.Spans(); len(spans) != 0 {
		t.Fatalf("tracer retained %d spans, want none: %+v", len(spans), spans[0])
	}
	var calls uint64
	for _, m := range s.Stats() {
		calls += m.Calls
	}
	if calls != 2*n {
		t.Fatalf("Stats counted %d calls, want %d", calls, 2*n)
	}
}

// TestUntracedRequestRecordsRootSpan: an untraced request is kept as a
// fresh root span when it crossed the slow-op threshold, and then fires
// OnSlowOp, or when it failed, and then carries Err.
func TestUntracedRequestRecordsRootSpan(t *testing.T) {
	checkRoots := func(t *testing.T, spans []telemetry.Span, ops ...string) {
		t.Helper()
		if len(spans) != len(ops) {
			t.Fatalf("server recorded %d spans, want %d (%v): %+v", len(spans), len(ops), ops, spans)
		}
		for i, sp := range spans {
			if sp.ID == 0 || sp.Parent != 0 || sp.Trace != sp.ID || sp.Op != ops[i] {
				t.Fatalf("span %d = %+v, want a fresh root trace of %s", i, sp, ops[i])
			}
		}
	}
	t.Run("slow", func(t *testing.T) {
		obs := &spanLog{}
		_, tracer, addr := newTracedServer(t, obs.add)
		tracer.SetSlowOpNS(0) // every request is slow
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(7, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(9, []byte("x")); err != nil {
			t.Fatal(err)
		}
		spans := tracer.Spans()
		checkRoots(t, spans, "rpc.echo", "rpc.recv")
		for _, sp := range spans {
			if sp.Err {
				t.Fatalf("successful request's span has Err: %+v", sp)
			}
		}
		if got := obs.slowOps(); len(got) != 2 || got[0] != "rpc.echo" || got[1] != "rpc.recv" {
			t.Fatalf("OnSlowOp saw %v, want [rpc.echo rpc.recv]", got)
		}
		if got := tracer.SlowOps(); got != 2 {
			t.Fatalf("SlowOps = %d, want 2", got)
		}
	})
	t.Run("failed", func(t *testing.T) {
		obs := &spanLog{}
		_, tracer, addr := newTracedServer(t, obs.add)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(8, nil); err == nil {
			t.Fatal("method 8 should fail")
		}
		if _, err := c.Call(7, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(9, nil); err == nil {
			t.Fatal("method 9 with an empty body should fail")
		}
		spans := tracer.Spans()
		checkRoots(t, spans, "rpc.fail", "rpc.recv")
		for _, sp := range spans {
			if !sp.Err {
				t.Fatalf("failed request's span lacks Err: %+v", sp)
			}
		}
		if got := obs.slowOps(); len(got) != 0 {
			t.Fatalf("OnSlowOp saw %v with slow-op classification off", got)
		}
	})
}

func TestServerMethodStats(t *testing.T) {
	s, tracer, addr := newTracedServer(t, nil)
	reg := telemetry.NewRegistry()
	s.SetRegistry(reg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Call(7, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call(8, nil); err == nil {
		t.Fatal("method 8 should fail")
	}
	var echo, fail *MethodStats
	stats := s.Stats()
	for i := range stats {
		switch stats[i].Name {
		case "rpc.echo":
			echo = &stats[i]
		case "rpc.fail":
			fail = &stats[i]
		}
	}
	if echo == nil || echo.Calls != 3 || echo.Errors != 0 {
		t.Fatalf("echo stats = %+v, want 3 calls 0 errors", echo)
	}
	if fail == nil || fail.Calls != 1 || fail.Errors != 1 {
		t.Fatalf("fail stats = %+v, want 1 call 1 error", fail)
	}
	if got := reg.Counter("rpc.requests").Value(); got != 4 {
		t.Fatalf("rpc.requests = %d, want 4", got)
	}
	if got := reg.Counter("rpc.errors").Value(); got != 1 {
		t.Fatalf("rpc.errors = %d, want 1", got)
	}
	// Error handlers record error spans.
	var errSpans int
	for _, sp := range tracer.Spans() {
		if sp.Err {
			errSpans++
		}
	}
	if errSpans != 1 {
		t.Fatalf("error spans = %d, want 1", errSpans)
	}
}
