package telemetry

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// simClock is a deterministic manual clock for tracer tests.
type simClock struct {
	mu  sync.Mutex
	now int64
}

func (c *simClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *simClock) Advance(d int64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestTracerSpanTree(t *testing.T) {
	clk := &simClock{}
	tr := NewTracer(TracerConfig{Clock: clk.Now, SlowOpNS: -1})

	root := tr.Begin(SpanContext{}, "pool.read")
	if root.Trace == 0 || root.Trace != root.ID || root.Parent != 0 {
		t.Fatalf("root span ids: %+v", root)
	}
	clk.Advance(10)
	child := tr.Begin(root.Context(), "cache.fill")
	if child.Trace != root.Trace || child.Parent != root.ID {
		t.Fatalf("child not linked to root: %+v", child)
	}
	clk.Advance(5)
	child.Bytes = 4096
	tr.End(&child)
	clk.Advance(5)
	root.Server = 2
	tr.End(&root)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(spans))
	}
	// Publication order: child ended first.
	if spans[0].Op != "cache.fill" || spans[1].Op != "pool.read" {
		t.Fatalf("order: %q, %q", spans[0].Op, spans[1].Op)
	}
	if spans[0].DurationNS != 5 || spans[1].DurationNS != 20 {
		t.Fatalf("durations: %d, %d", spans[0].DurationNS, spans[1].DurationNS)
	}
	if spans[0].Bytes != 4096 || spans[1].Server != 2 {
		t.Fatalf("payload fields lost: %+v, %+v", spans[0], spans[1])
	}
	if tr.Published() != 2 {
		t.Fatalf("published = %d", tr.Published())
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 64, SlowOpNS: -1})
	const n = 10000
	for i := 0; i < n; i++ {
		s := tr.Begin(SpanContext{}, "op")
		tr.End(&s)
	}
	spans := tr.Spans()
	// Capacity is RingSize rounded up across lanes; it must be bounded
	// well below n and retain only the newest spans.
	if len(spans) == 0 || len(spans) >= n/2 {
		t.Fatalf("ring retained %d of %d spans", len(spans), n)
	}
	if tr.Published() != n {
		t.Fatalf("published = %d, want %d", tr.Published(), n)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatalf("spans not in publication order at %d: %d then %d", i, spans[i-1].ID, spans[i].ID)
		}
	}
}

// slowLog keeps the spans a tracer hands its OnSlowOp hook.
type slowLog struct {
	mu   sync.Mutex
	slow []Span
}

func (l *slowLog) add(s Span) {
	l.mu.Lock()
	l.slow = append(l.slow, s)
	l.mu.Unlock()
}

func TestTracerSlowOpsAndObserver(t *testing.T) {
	clk := &simClock{}
	obs := &slowLog{}
	tr := NewTracer(TracerConfig{Clock: clk.Now, SlowOpNS: 100, OnSlowOp: obs.add})

	fast := tr.Begin(SpanContext{}, "fast")
	clk.Advance(99)
	if slow := tr.End(&fast); slow {
		t.Fatal("99ns span classified slow with 100ns threshold")
	}
	slowSpan := tr.Begin(SpanContext{}, "slow")
	clk.Advance(100)
	if slow := tr.End(&slowSpan); !slow {
		t.Fatal("100ns span not classified slow at threshold")
	}
	if tr.SlowOps() != 1 {
		t.Fatalf("slow ops = %d, want 1", tr.SlowOps())
	}
	if tr.Published() != 2 || len(obs.slow) != 1 {
		t.Fatalf("published %d spans, hook saw %d slow", tr.Published(), len(obs.slow))
	}
	if obs.slow[0].Op != "slow" {
		t.Fatalf("slow span op = %q", obs.slow[0].Op)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 1 << 14, SlowOpNS: -1})
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				root := tr.Begin(SpanContext{}, "root")
				child := tr.Begin(root.Context(), "child")
				tr.End(&child)
				tr.End(&root)
			}
		}()
	}
	wg.Wait()
	if got := tr.Published(); got != workers*per*2 {
		t.Fatalf("published = %d, want %d", got, workers*per*2)
	}
	byID := map[uint64]Span{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
	}
	// Every retained child whose parent is also retained must agree on
	// the trace ID.
	for _, s := range byID {
		if s.Parent == 0 {
			continue
		}
		if p, ok := byID[s.Parent]; ok && p.Trace != s.Trace {
			t.Fatalf("child %d trace %d, parent trace %d", s.ID, s.Trace, p.Trace)
		}
	}
}

func TestSpanContextCarriage(t *testing.T) {
	if sc := SpanFromContext(nil); sc.Traced() {
		t.Fatal("nil context yielded a traced SpanContext")
	}
	if sc := SpanFromContext(context.Background()); sc.Traced() {
		t.Fatal("bare context yielded a traced SpanContext")
	}
	want := SpanContext{Trace: 7, Span: 9}
	ctx := ContextWithSpan(context.Background(), want)
	if got := SpanFromContext(ctx); got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// TestTraceAllocFree: once every lane has its ring, End does not
// allocate, for a begun span or an untraced root, kept or not. Every
// lane publishes first: a lane's first span allocates its ring, and a few
// of those spread over the runs would round down to 0 per run.
func TestTraceAllocFree(t *testing.T) {
	tr := NewTracer(TracerConfig{SlowOpNS: -1})
	for range tr.lanes {
		s := tr.Begin(SpanContext{}, "warm")
		tr.End(&s)
	}
	for i := range tr.lanes {
		if tr.lanes[i].ring == nil {
			t.Fatalf("lane %d has no ring after %d spans", i, len(tr.lanes))
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		s := tr.Begin(SpanContext{}, "pool.read")
		s.Bytes = 64
		tr.End(&s)
		u := Span{Op: "rpc.read", Server: -1, Start: tr.Now()}
		tr.End(&u)
		u = Span{Op: "rpc.read", Server: -1, Start: tr.Now(), Err: true}
		tr.End(&u)
	})
	if allocs != 0 {
		t.Fatalf("Begin/End allocates %.1f per op, want 0", allocs)
	}
}

// TestNewTracerHoldsNoSpanStorage: a tracer allocates its lanes' headers
// and no ring until a span lands in a lane. GOMAXPROCS is pinned because
// it sets the lane count.
func TestNewTracerHoldsNoSpanStorage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const builds = 10
	keep := make([]*Tracer, 0, builds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		keep = append(keep, NewTracer(TracerConfig{}))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= 4<<10 {
		t.Fatalf("NewTracer allocates %d B, want under 4 KiB", per)
	}
	for _, tr := range keep {
		if spans := tr.Spans(); len(spans) != 0 || tr.Published() != 0 {
			t.Fatalf("fresh tracer holds %d spans, published %d", len(spans), tr.Published())
		}
	}
}

// TestEndKeepsUntracedRootWhenFailedOrSlow: End keeps an untraced root
// (a span with no ID) — with a fresh ID that is its trace, and handed to
// OnSlowOp as a begun span would be — only when it failed or reached the
// slow-op threshold.
func TestEndKeepsUntracedRootWhenFailedOrSlow(t *testing.T) {
	clk := &simClock{}
	obs := &slowLog{}
	tr := NewTracer(TracerConfig{Clock: clk.Now, SlowOpNS: 100, OnSlowOp: obs.add})
	end := func(op string, d int64, failed bool) (Span, bool) {
		s := Span{Op: op, Server: -1, Start: tr.Now(), Err: failed}
		clk.Advance(d)
		slow := tr.End(&s)
		return s, slow
	}
	if s, slow := end("fast", 99, false); slow || s.ID != 0 || s.DurationNS != 99 {
		t.Fatalf("fast untraced root: slow=%v %+v, want not slow, no ID", slow, s)
	}
	if got := tr.Published(); got != 0 || len(obs.slow) != 0 {
		t.Fatalf("fast untraced root published %d spans, hook saw %d", got, len(obs.slow))
	}
	failed, slow := end("failed", 1, true)
	if slow || failed.ID == 0 || failed.Trace != failed.ID || failed.Parent != 0 {
		t.Fatalf("failed untraced root: slow=%v %+v, want a fresh root", slow, failed)
	}
	late, slow := end("slow", 100, false)
	if !slow || late.ID == 0 || late.Trace != late.ID {
		t.Fatalf("slow untraced root: slow=%v %+v, want slow, a fresh root", slow, late)
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0] != failed || spans[1] != late {
		t.Fatalf("retained %+v, want the failed then the slow root", spans)
	}
	if tr.SlowOps() != 1 || len(obs.slow) != 1 || obs.slow[0] != late {
		t.Fatalf("SlowOps=%d, hook saw %v, want the slow root", tr.SlowOps(), obs.slow)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"pool.reads.local":     "lmp_pool_reads_local",
		"pool.cache.hits":      "lmp_pool_cache_hits",
		"rpc.server.slow_ops":  "lmp_rpc_server_slow_ops",
		"weird-name.with/junk": "lmp_weird_name_with_junk",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("pool.reads.local").Add(3)
	r.Gauge("pool.bytes_allocated").Set(42)
	r.Striped("pool.stripe.ops", 4).Add(1, 5)
	h := r.Histogram("pool.latency.read")
	h.Observe(100)
	h.Observe(200)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lmp_pool_reads_local counter",
		"lmp_pool_reads_local 3",
		"# TYPE lmp_pool_bytes_allocated gauge",
		"lmp_pool_bytes_allocated 42",
		"# TYPE lmp_pool_stripe_ops counter",
		"lmp_pool_stripe_ops 5",
		"# TYPE lmp_pool_latency_read summary",
		`lmp_pool_latency_read{quantile="0.99"} 200`,
		"lmp_pool_latency_read_sum 300",
		"lmp_pool_latency_read_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
