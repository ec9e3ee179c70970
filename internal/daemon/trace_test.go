// End-to-end trace propagation through a live daemon: a client context
// carrying a span identity produces daemon-side handler spans in the
// same trace, untraced traffic is counted but leaves no span, the typed
// stats snapshot reflects the dispatches, and the slow-op hook fires.
package daemon

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/telemetry"
)

func TestDaemonTracePropagation(t *testing.T) {
	s, err := NewServer("d0", 1<<24, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	off, err := c.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.ContextWithSpan(context.Background(),
		telemetry.SpanContext{Trace: 555, Span: 1})
	if err := c.WriteCtx(ctx, off, []byte("traced bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadCtx(ctx, off, 12); err != nil {
		t.Fatal(err)
	}

	var write, read int
	for _, sp := range s.TraceSpans() {
		if sp.Trace != 555 {
			continue
		}
		switch sp.Op {
		case "rpc.write":
			write++
		case "rpc.read":
			read++
		}
	}
	if write != 1 || read != 1 {
		t.Fatalf("spans in trace 555: %d writes, %d reads, want 1/1", write, read)
	}

	st := s.Stats()
	if st.Name != "d0" || st.InUse != 4096 {
		t.Fatalf("stats = %+v", st)
	}
	byName := map[string]uint64{}
	for _, m := range st.Methods {
		byName[m.Name] = m.Calls
	}
	if byName["rpc.alloc"] != 1 || byName["rpc.write"] != 1 || byName["rpc.read"] != 1 {
		t.Fatalf("method calls = %v", byName)
	}
	if got := s.Metrics().Counter("rpc.requests").Value(); got != 3 {
		t.Fatalf("rpc.requests = %d, want 3", got)
	}
}

func TestDaemonSlowOpHook(t *testing.T) {
	s, err := NewServer("d0", 1<<24, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var slow []telemetry.Span
	s.OnSlowOp(func(sp telemetry.Span) {
		mu.Lock()
		slow = append(slow, sp)
		mu.Unlock()
	})
	s.SetSlowOpNS(0) // every op is slow
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slow) != 1 || slow[0].Op != "rpc.info" {
		t.Fatalf("slow ops = %+v, want one rpc.info", slow)
	}
	if s.Stats().SlowOps != 1 {
		t.Fatalf("SlowOps = %d, want 1", s.Stats().SlowOps)
	}
}

// TestUntracedTrafficPublishesNoSpans: 1 000 untraced 64 B reads and
// writes, all under the slow-op threshold, are counted in rpc.requests
// and Stats but publish no span.
func TestUntracedTrafficPublishesNoSpans(t *testing.T) {
	s, err := NewServer("d0", 1<<24, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetSlowOpNS(int64(time.Second)) // no 64 B op is slow, however loaded the host
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	off, err := c.Alloc(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 1000
	data := bytes.Repeat([]byte{0x5a}, 64)
	for i := 0; i < ops/2; i++ {
		at := off + int64(i%1024)*64
		if err := c.Write(at, data); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read(at, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d back %x", i, got)
		}
	}
	st := s.Stats()
	if st.SpansPublished != 0 {
		t.Fatalf("SpansPublished = %d after %d untraced fast ops, want 0", st.SpansPublished, ops)
	}
	if spans := s.TraceSpans(); len(spans) != 0 {
		t.Fatalf("daemon retained %d spans, want none: %+v", len(spans), spans[0])
	}
	byName := map[string]uint64{}
	for _, m := range st.Methods {
		byName[m.Name] = m.Calls
	}
	if byName["rpc.write"] != ops/2 || byName["rpc.read"] != ops/2 {
		t.Fatalf("method calls = %v, want %d writes and %d reads", byName, ops/2, ops/2)
	}
	if got := s.Metrics().Counter("rpc.requests").Value(); got != ops+1 {
		t.Fatalf("rpc.requests = %d, want %d ops plus the alloc", got, ops+1)
	}
}
