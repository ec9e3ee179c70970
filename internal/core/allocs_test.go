package core

import (
	"context"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// vecAllocsOK reports whether a vectored path's per-op allocation count
// is acceptable. The vectored scratch (vecState) is pooled, so the
// steady state is exactly zero — except under the race detector, where
// sync.Pool deliberately drops a fraction of Puts to widen race
// coverage, so the scratch periodically reallocates and exact-zero is
// unattainable by design. Race builds assert a small bound instead.
func vecAllocsOK(n float64) bool {
	if raceDetectorEnabled {
		return n <= 4
	}
	return n == 0
}

// TestReadWriteAllocFree pins the steady-state allocation counts of the
// hot data paths: the single-slice read and write, the cached-hit read,
// and the vectored paths must not allocate per operation. A regression
// here silently costs GC pressure at fabric rates, so the counts are
// exact, not bounded.
func TestReadWriteAllocFree(t *testing.T) {
	p, err := New(Config{
		Servers: []ServerConfig{
			{Name: "a", Capacity: 64 << 20, SharedBytes: 32 << 20},
			{Name: "b", Capacity: 64 << 20, SharedBytes: 32 << 20},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)

	if n := testing.AllocsPerRun(200, func() {
		if err := p.Read(1, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("remote read allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.Write(1, b.Addr()+4096, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("remote write allocates %.1f per op, want 0", n)
	}
	vecs := []Vec{
		{Addr: b.Addr(), Data: make([]byte, 64)},
		{Addr: b.Addr() + 8192, Data: make([]byte, 64)},
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.ReadV(1, vecs); err != nil {
			t.Fatal(err)
		}
	}); !vecAllocsOK(n) {
		t.Errorf("vectored read allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.WriteV(1, vecs); err != nil {
			t.Fatal(err)
		}
	}); !vecAllocsOK(n) {
		t.Errorf("vectored write allocates %.1f per op, want 0", n)
	}
}

// TestCachedReadHitAllocFree pins the cache hit path: once a page is
// resident, serving reads from it must not allocate.
func TestCachedReadHitAllocFree(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	// Fill the page once so the measured runs are all hits.
	if err := p.Read(1, b.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.Read(1, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("cached read hit allocates %.1f per op, want 0", n)
	}
	if st := p.CacheStats(); st.Hits < 200 {
		t.Fatalf("measured loop was not the hit path: %+v", st)
	}
	// Local reads on a cache-enabled pool (served direct through the
	// miss path) must stay allocation-free too.
	if n := testing.AllocsPerRun(200, func() {
		if err := p.Read(0, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("local read on cached pool allocates %.1f per op, want 0", n)
	}
}

// TestTracedOpsAllocFree pins the observability cost contract: with
// every op traced (SampleEvery 1 — span begin/end, ring publication, and
// latency histogram observation on each call) the hot paths still
// allocate exactly zero per operation. This is the "tracing is free to
// leave on" claim as an exact guard, not a bound.
func TestTracedOpsAllocFree(t *testing.T) {
	p, err := New(Config{
		Servers: []ServerConfig{
			{Name: "a", Capacity: 64 << 20, SharedBytes: 32 << 20},
			{Name: "b", Capacity: 64 << 20, SharedBytes: 32 << 20},
		},
		Trace: TraceConfig{SampleEvery: 1, SlowOpNS: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	vecs := []Vec{
		{Addr: b.Addr(), Data: make([]byte, 64)},
		{Addr: b.Addr() + 8192, Data: make([]byte, 64)},
	}

	cases := []struct {
		name     string
		op       func() error
		vectored bool // pooled scratch: see vecAllocsOK
	}{
		{"traced remote read", func() error { return p.Read(1, b.Addr(), buf) }, false},
		{"traced remote write", func() error { return p.Write(1, b.Addr()+4096, buf) }, false},
		{"traced vectored read", func() error { return p.ReadV(1, vecs) }, true},
		{"traced vectored write", func() error { return p.WriteV(1, vecs) }, true},
	}
	for _, tc := range cases {
		n := testing.AllocsPerRun(200, func() {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		})
		if ok := n == 0 || (tc.vectored && vecAllocsOK(n)); !ok {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, n)
		}
	}
	if got := p.TracePublished(); got < 800 {
		t.Fatalf("measured loops were not traced: %d spans published", got)
	}

	// A caller-supplied parent span forces tracing regardless of the
	// sampler; threading it through the Ctx entry points must not
	// allocate either (the SpanContext travels by value, never through
	// context.WithValue on the data path).
	ctx := telemetry.ContextWithSpan(context.Background(), telemetry.SpanContext{Trace: 7, Span: 11})
	if n := testing.AllocsPerRun(200, func() {
		if err := p.ReadCtx(ctx, 1, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("context-traced read allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.WriteCtx(ctx, 1, b.Addr()+4096, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("context-traced write allocates %.1f per op, want 0", n)
	}
}

// TestTracedCachedHitAllocFree extends the cache-hit guard to a fully
// traced pool: a resident-page read records a span and observes the
// latency histogram and still must not allocate.
func TestTracedCachedHitAllocFree(t *testing.T) {
	p, err := New(Config{
		Servers: []ServerConfig{
			{Name: "a", Capacity: 64 << 20, SharedBytes: 32 << 20},
			{Name: "b", Capacity: 64 << 20, SharedBytes: 32 << 20},
		},
		Cache: CacheConfig{Enabled: true, CapacityBytes: 1 << 20},
		Trace: TraceConfig{SampleEvery: 1, SlowOpNS: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := p.Read(1, b.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.Read(1, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("traced cached read hit allocates %.1f per op, want 0", n)
	}
	if st := p.CacheStats(); st.Hits < 200 {
		t.Fatalf("measured loop was not the hit path: %+v", st)
	}
}

// TestCachedColdPathAllocFree pins the other side of the cache: with a
// buffer many times the cache, a read misses, fills, evicts through the
// clock and the ghost list, registers with the page directory and sends
// the eviction notice for its victim; a small write is buffered, goes
// through the directory's write-no-allocate (on a page the writer caches,
// which it keeps as owner, or on one nobody caches, which stays
// untracked), and the combiner's limits — 4 KiB or 32 writes for this
// 128-page cache — trigger threshold flushes. Once every
// structure on those paths has reached its high-water mark, none of them
// allocates: the runtime's footprint is the data it holds. (A directory
// that back-invalidates is pinned in internal/coherence: this one
// registers only resident pages and never fills.)
func TestCachedColdPathAllocFree(t *testing.T) {
	const (
		cacheBytes = 512 << 10
		pageSize   = 4096
		bufBytes   = 16 * cacheBytes // 2048 pages, 128 of them cached at a time
		pages      = bufBytes / pageSize
	)
	p := newCachedPool(t, CacheConfig{CapacityBytes: cacheBytes, PageSize: pageSize})
	b, err := p.Alloc(bufBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Materialise every backing page: memnode allocates on first write.
	fill := make([]byte, SliceSize)
	for off := int64(0); off < bufBytes; off += SliceSize {
		if err := p.Write(0, b.Addr()+addr.Logical(off), fill); err != nil {
			t.Fatal(err)
		}
	}
	rbuf, wbuf := make([]byte, 64), make([]byte, 256)
	// Server 1 works on server 0's memory. The page walk has a stride
	// coprime to the page count, so a page is long evicted (and its last
	// buffered write long flushed) when the walk returns to it. A write
	// lands on the previous op's page: the one just read and cached after
	// a read, an uncached one after a write.
	i := 0
	op := func() {
		page := int64(i) * 1031 % pages
		var err error
		if i%10 < 3 {
			page = int64(i+pages-1) * 1031 % pages
			err = p.Write(1, b.Addr()+addr.Logical(page*pageSize+int64(i/pages%16)*256), wbuf)
		} else {
			err = p.Read(1, b.Addr()+addr.Logical(page*pageSize+int64(i%64)*64), rbuf)
		}
		if err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 4*pages {
		op()
	}
	before, dirBefore := p.CacheStats(), p.PageDirectory().Stats()
	const runs, opsPerRun = 5, 1000
	n := testing.AllocsPerRun(runs, func() {
		for k := 0; k < opsPerRun; k++ {
			op()
		}
	})
	// Under the race detector sync.Pool drops a quarter of its Puts, so
	// the page scratch behind a fill is re-made that often.
	if ok := n == 0 || (raceDetectorEnabled && n <= opsPerRun); !ok {
		t.Errorf("cold cached path allocates %.0f per %d ops, want 0", n, opsPerRun)
	}
	after, dirAfter := p.CacheStats(), p.PageDirectory().Stats()
	const measured = (runs + 1) * opsPerRun // AllocsPerRun warms up with one extra run
	if got := after.Evictions - before.Evictions; got < measured/2 {
		t.Errorf("measured loop evicted %d pages in %d ops: not the miss path", got, measured)
	}
	if got := after.Flushes - before.Flushes; got < 3*(runs+1) {
		t.Errorf("measured loop flushed %d times, want at least 3 per run", got)
	}
	// A cached page the writer took over as Modified owner is written back
	// when its eviction notice retires it: the write-no-allocate kept a
	// copy that existed, and the notice found it.
	if got := dirAfter.Writebacks - dirBefore.Writebacks; got < measured/20 {
		t.Errorf("measured loop retired %d written cached pages in %d ops, want at least %d", got, measured, measured/20)
	}
	if got := dirAfter.BackInvalidates; got != 0 {
		t.Errorf("directory back-invalidated %d blocks: it registers more than the resident pages", got)
	}
	if tracked, resident := p.PageDirectory().TrackedBlocks(), after.Pages; tracked != resident {
		t.Errorf("directory tracks %d pages, %d are cached", tracked, resident)
	}
}
