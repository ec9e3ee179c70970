// Tests for the v1 observability surface: the typed Pool.Stats
// snapshot (of a logical pool and of the physical baseline), span tracing through the public API, and
// the WithTracing / WithObserver options. The reflection test pins the
// satellite contract: a Stats snapshot exposes only exported,
// JSON-tagged fields — no internal registry types leak through it.
package lmp_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	lmp "github.com/lmp-project/lmp"
)

// checkSnapshotType walks a snapshot struct type and fails on any
// unexported field, any field missing a json tag, and any field whose
// type lives in an internal package (which the lmp package could not
// re-export).
func checkSnapshotType(t *testing.T, typ reflect.Type, seen map[reflect.Type]bool) {
	t.Helper()
	for typ.Kind() == reflect.Ptr || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct || seen[typ] {
		return
	}
	seen[typ] = true
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			t.Errorf("%v.%s: unexported field in public stats snapshot", typ, f.Name)
			continue
		}
		if f.Tag.Get("json") == "" {
			t.Errorf("%v.%s: missing json tag", typ, f.Name)
		}
		ft := f.Type
		for ft.Kind() == reflect.Ptr || ft.Kind() == reflect.Slice || ft.Kind() == reflect.Array {
			ft = ft.Elem()
		}
		switch ft.Kind() {
		case reflect.Chan, reflect.Func, reflect.UnsafePointer, reflect.Interface:
			t.Errorf("%v.%s: snapshot field has non-data kind %v", typ, f.Name, ft.Kind())
		case reflect.Struct:
			checkSnapshotType(t, ft, seen)
		}
	}
}

func TestStatsSnapshotTypesAreClean(t *testing.T) {
	seen := map[reflect.Type]bool{}
	checkSnapshotType(t, reflect.TypeOf(lmp.PoolStats{}), seen)
	checkSnapshotType(t, reflect.TypeOf(lmp.Span{}), seen)
}

func TestPoolStats(t *testing.T) {
	pool := newTestPool(t, 3, 8, lmp.WithTracing(lmp.TraceConfig{SampleEvery: 1}))
	buf, err := pool.Alloc(2*lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := 0; i < 10; i++ {
		if err := pool.Write(1, buf.Addr(), data); err != nil {
			t.Fatal(err)
		}
		if err := pool.Read(2, buf.Addr(), data); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Allocs != 1 {
		t.Fatalf("Allocs = %d, want 1", st.Allocs)
	}
	if st.BytesAllocated != 2*lmp.SliceSize {
		t.Fatalf("BytesAllocated = %d, want %d", st.BytesAllocated, 2*lmp.SliceSize)
	}
	if got := st.Reads.Ops(); got != 10 {
		t.Fatalf("read ops = %d, want 10", got)
	}
	if got := st.Writes.Bytes(); got != 10*4096 {
		t.Fatalf("write bytes = %d, want %d", got, 10*4096)
	}
	if len(st.Servers) != 3 {
		t.Fatalf("servers = %d, want 3", len(st.Servers))
	}
	var ops, issuer uint64
	for _, ss := range st.Servers {
		if len(ss.OpsByIssuer) != 3 {
			t.Fatalf("server %d OpsByIssuer lanes = %d, want 3", ss.ID, len(ss.OpsByIssuer))
		}
		ops += ss.Ops
		issuer += ss.OpsByIssuer[1] + ss.OpsByIssuer[2]
	}
	if ops != 20 {
		t.Fatalf("summed server ops = %d, want 20", ops)
	}
	if issuer != 20 {
		t.Fatalf("ops issued by servers 1+2 = %d, want 20", issuer)
	}
	var striped uint64
	for _, n := range st.StripeOps {
		striped += n
	}
	if striped != 20 {
		t.Fatalf("summed stripe ops = %d, want 20", striped)
	}
	// SampleEvery=1: every op is traced and lands in a latency histogram.
	if st.ReadLatency.Count != 10 || st.WriteLatency.Count != 10 {
		t.Fatalf("latency counts = %d/%d, want 10/10",
			st.ReadLatency.Count, st.WriteLatency.Count)
	}
	if st.ReadLatency.P99NS < st.ReadLatency.P50NS {
		t.Fatalf("p99 %v < p50 %v", st.ReadLatency.P99NS, st.ReadLatency.P50NS)
	}
	if st.SpansPublished < 20 {
		t.Fatalf("SpansPublished = %d, want >= 20", st.SpansPublished)
	}
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"reads"`, `"servers"`, `"stripe_ops"`, `"read_latency"`, `"spans_published"`} {
		if !strings.Contains(string(out), key) {
			t.Fatalf("marshalled stats missing %s: %s", key, out)
		}
	}
}

func TestTracingDisabled(t *testing.T) {
	pool := newTestPool(t, 2, 4, lmp.WithTracing(lmp.TraceConfig{Disabled: true}))
	buf, err := pool.Alloc(lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128)
	for i := 0; i < 100; i++ {
		if err := pool.Write(0, buf.Addr(), data); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.SpansPublished != 0 || st.WriteLatency.Count != 0 {
		t.Fatalf("tracing disabled but spans=%d latency count=%d",
			st.SpansPublished, st.WriteLatency.Count)
	}
	// Traffic counters stay on regardless.
	if got := st.Writes.Ops(); got != 100 {
		t.Fatalf("write ops = %d, want 100", got)
	}
	if pool.TraceSpans() != nil {
		t.Fatal("TraceSpans non-nil with tracing disabled")
	}
}

// spanSink collects observed spans; used to test WithObserver.
type spanSink struct {
	mu    sync.Mutex
	spans []lmp.Span
	slow  []lmp.Span
}

func (s *spanSink) OnSpan(sp lmp.Span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

func (s *spanSink) OnSlowOp(sp lmp.Span) {
	s.mu.Lock()
	s.slow = append(s.slow, sp)
	s.mu.Unlock()
}

func TestWithObserverAndContextTracing(t *testing.T) {
	sink := &spanSink{}
	pool := newTestPool(t, 2, 4,
		lmp.WithTracing(lmp.TraceConfig{SampleEvery: 1 << 30}), // effectively never sample
		lmp.WithObserver(sink),
	)
	buf, err := pool.Alloc(lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	// Untraced context, huge sampling period: no spans. (The very first
	// sampled op per server can trigger at counter wrap; one warm-up op
	// absorbs nothing here since period is 2^30.)
	if err := pool.Write(1, buf.Addr(), data); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	base := len(sink.spans)
	sink.mu.Unlock()
	// A context carrying a span forces tracing end to end.
	ctx := lmp.ContextWithSpan(context.Background(), lmp.SpanContext{Trace: 77, Span: 99})
	if err := pool.WriteCtx(ctx, 1, buf.Addr(), data); err != nil {
		t.Fatal(err)
	}
	if err := pool.ReadCtx(ctx, 1, buf.Addr(), data); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	got := sink.spans[base:]
	if len(got) < 2 {
		t.Fatalf("observer saw %d spans, want >= 2", len(got))
	}
	for _, sp := range got {
		if sp.Trace != 77 {
			t.Fatalf("span %+v not in caller trace 77", sp)
		}
	}
	var root int
	for _, sp := range got {
		if sp.Parent == 99 {
			root++
		}
	}
	if root != 2 {
		t.Fatalf("spans parented on caller span 99 = %d, want 2 (got %+v)", root, got)
	}
}

// The physical baseline reports through the same PoolStats as any pool:
// the device is the one server that backs traffic, and the local caches
// are the pool's cache.
func TestPhysicalBaselineStats(t *testing.T) {
	pool, err := lmp.NewPhysical(lmp.PhysicalConfig{
		Servers: 2, LocalBytes: 1 << 20, PoolBytes: 8 * lmp.SliceSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pool.Alloc(1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	if err := pool.Write(0, buf.Addr(), data); err != nil {
		t.Fatal(err)
	}
	if err := pool.Read(0, buf.Addr(), data); err != nil {
		t.Fatal(err)
	}
	if err := pool.Read(0, buf.Addr(), data); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if len(st.Servers) != 3 {
		t.Fatalf("%d servers, want 2 compute + the device", len(st.Servers))
	}
	for i, srv := range st.Servers {
		if isDevice := i == 2; srv.Dead || (srv.SharedBytes != 0) != isDevice || (srv.Ops != 0) != isDevice {
			t.Fatalf("server %d: %+v", i, srv)
		}
	}
	if st.Servers[2].Name != "pool-device" || st.Servers[2].SharedBytes != 8*lmp.SliceSize {
		t.Fatalf("device: %+v", st.Servers[2])
	}
	if st.Allocs != 1 || st.BytesAllocated != lmp.SliceSize {
		t.Fatalf("Allocs = %d, BytesAllocated = %d", st.Allocs, st.BytesAllocated)
	}
	if st.Cache.Fills != 1 || st.Cache.Hits != 1 || st.Reads.RemoteOps != 1 || st.Reads.LocalOps != 0 {
		t.Fatalf("fills/hits = %d/%d, reads local/remote = %d/%d, want a miss then a hit",
			st.Cache.Fills, st.Cache.Hits, st.Reads.LocalOps, st.Reads.RemoteOps)
	}
	if st.Writes.RemoteBytes != 4096 || st.Writes.LocalBytes != 0 {
		t.Fatalf("write bytes local/remote = %d/%d, want 0/4096", st.Writes.LocalBytes, st.Writes.RemoteBytes)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatal(err)
	}
}

func TestStatsStringerExample(t *testing.T) {
	// Stats must be renderable without reaching into internals — the
	// quickstart prints hit rate and latency from the snapshot alone.
	pool := newTestPool(t, 2, 4)
	st := pool.Stats()
	_ = fmt.Sprintf("hit rate %.2f p99 read %.0fns", st.Cache.HitRate(), st.ReadLatency.P99NS)
}
