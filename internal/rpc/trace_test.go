// Tests for cross-process trace propagation (kind-4 frames), per-method
// and per-method dispatch stats.
package rpc

import (
	"context"
	"errors"
	"testing"

	"github.com/lmp-project/lmp/internal/telemetry"
)

func newTracedServer(t *testing.T) (*Server, *telemetry.Tracer, string) {
	t.Helper()
	s := NewServer()
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SlowOpNS: -1})
	s.SetTracer(tracer)
	s.Handle(7, func(p []byte) ([]byte, error) { return append([]byte("ok:"), p...), nil })
	s.NameMethod(7, "rpc.echo")
	s.Handle(8, func(p []byte) ([]byte, error) { return nil, errors.New("boom") })
	s.NameMethod(8, "rpc.fail")
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, tracer, addr
}

func TestTracedRequestPropagatesSpan(t *testing.T) {
	_, tracer, addr := newTracedServer(t)
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

func TestUntracedRequestRecordsRootSpan(t *testing.T) {
	_, tracer, addr := newTracedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Spans()
	if len(spans) != 1 {
		t.Fatalf("server recorded %d spans, want 1", len(spans))
	}
	if sp := spans[0]; sp.Parent != 0 || sp.Trace != sp.ID {
		t.Fatalf("span = %+v, want fresh root trace", sp)
	}
}

func TestServerMethodStats(t *testing.T) {
	s, tracer, addr := newTracedServer(t)
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
