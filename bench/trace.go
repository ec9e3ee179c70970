package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"

	lmp "github.com/lmp-project/lmp"
	"github.com/lmp-project/lmp/internal/coherence"
	"github.com/lmp-project/lmp/internal/memnode"
	"github.com/lmp-project/lmp/internal/rpc"
)

// layerMetric is one per-layer metric of the traced run. The list is the
// order they print in and must match BENCHMARK.json's per_layer.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"e2e.ops_per_s", "1/s"}, {"e2e.read_p50_us", "us"}, {"e2e.read_p99_us", "us"},
	{"e2e.write_p50_us", "us"}, {"e2e.write_p99_us", "us"}, {"e2e.cpu_us_per_op", "us"},
	{"view.self_us", "us"}, {"view.chunks_per_op", "count"},
	{"rpc.call_p50_us", "us"}, {"rpc.call_p99_us", "us"}, {"rpc.echo_p50_us", "us"},
	{"rpc.calls_per_op", "count"}, {"rpc.frames_per_call", "count"}, {"rpc.batch_fill", "count"},
	{"rpc.max_batch", "count"}, {"rpc.shed", "count"}, {"rpc.pending_end", "count"},
	{"daemon.handler_us", "us"}, {"daemon.calls", "count"}, {"daemon.errors", "count"},
	{"memnode.read_ns", "ns"}, {"memnode.write_ns", "ns"}, {"memnode.fill_read_ns", "ns"},
	{"memnode.materialized_pages", "count"},
	{"core.translate_ns", "ns"}, {"core.local_read_p50_ns", "ns"}, {"core.remote_read_p50_ns", "ns"},
	{"core.local_share", "share"}, {"core.stripe_skew", "ratio"}, {"core.self_ns", "ns"},
	{"cache.hit_rate", "share"}, {"cache.fills_per_kop", "count"}, {"cache.evictions_per_kop", "count"},
	{"cache.invalidations_per_kop", "count"}, {"cache.wc_flushes_per_kop", "count"}, {"cache.wc_bytes_per_flush", "B"},
	{"cache.read_hit_ns", "ns"}, {"cache.put_evict_ns", "ns"}, {"cache.invalidate_ns", "ns"}, {"cache.wc_add_ns", "ns"},
	{"coherence.acquire_read_ns", "ns"}, {"coherence.acquire_write_ns", "ns"},
	{"coherence.invalidations_per_write", "count"}, {"coherence.back_invalidates_per_kop", "count"},
	{"telemetry.tax_share", "share"},
	{"runtime.allocs_per_op", "count"}, {"runtime.alloc_bytes_per_op", "B"}, {"runtime.alloc_bytes_per_payload_byte", "ratio"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead_share", "share"}, {"bench.round_spread_max", "share"}, {"bench.span_sum_error", "share"},
	{"bench.ref_rtt_us", "us"},
}

// counts is every exported counter the layers offer, read at one moment;
// the traced run diffs two of them across its untraced rounds.
type counts struct {
	rpc                  rpc.ClientStats
	handled, handlerErrs uint64
	pool                 lmp.PoolStats
	dir                  coherence.Stats
	mem                  runtime.MemStats
	allocatedBytes       int64
}

func snap(t target) counts {
	var c counts
	switch t := t.(type) {
	case *wireTarget:
		c.rpc = t.clientStats()
		c.handled, c.handlerErrs = t.handlerCounts()
		for _, s := range t.servers {
			c.allocatedBytes += s.Stats().InUse
		}
	case *poolTarget:
		c.pool = t.pool.Stats()
		c.allocatedBytes = c.pool.BytesAllocated
		if d := t.pool.PageDirectory(); d != nil {
			c.dir = d.Stats()
		}
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureTraced runs one round of ns with a tracer on every caller.
func measureTraced(t target, cs []*caller, ns int64) (*round, []*tracer) {
	trs := make([]*tracer, len(cs))
	for i, c := range cs {
		trs[i] = newTracer()
		c.tr = trs[i]
		if p, ok := t.(*poolTarget); ok {
			c.local = make([]bool, p.buf.Size()>>sliceShift)
			for s := range c.local {
				owner, err := p.pool.OwnerOf(p.buf.Addr() + lmp.Logical(s)<<sliceShift)
				c.local[s] = err == nil && owner == p.from[c.id]
			}
		}
	}
	r := runRound(t, cs, ns)
	for _, c := range cs {
		c.tr, c.local = nil, nil
	}
	return r, trs
}

// spanLayers turns the spans of the traced round into the span-derived metrics
// of the path the target is on: view and rpc.call on the wire path, the
// local/remote read split on the pool path.
func spanLayers(m map[string]float64, trs []*tracer, r *round) {
	var all tracer
	var root hist
	for _, t := range trs {
		all.self.merge(&t.self)
		all.covered.merge(&t.covered)
		all.call.merge(&t.call)
		all.localRead.merge(&t.localRead)
		all.remoteRead.merge(&t.remoteRead)
		all.opSeq += t.opSeq
		all.calls += t.calls
	}
	root.merge(&r.lat[kindRead])
	root.merge(&r.lat[kindWrite])
	if all.calls > 0 {
		m["view.self_us"] = all.self.quantile(0.5) / 1e3
		m["view.chunks_per_op"] = ratio(float64(all.calls), float64(all.opSeq))
		m["rpc.call_p50_us"] = all.call.quantile(0.5) / 1e3
		m["rpc.call_p99_us"] = all.call.quantile(0.99) / 1e3
		// The root's median against the medians of its two parts: the
		// self time and what the rpc.call children cover.
		p50 := root.quantile(0.5)
		m["bench.span_sum_error"] = ratio(math.Abs(p50-all.self.quantile(0.5)-all.covered.quantile(0.5)), p50)
		return
	}
	if all.localRead.n > 0 {
		m["core.local_read_p50_ns"] = all.localRead.quantile(0.5)
	}
	if all.remoteRead.n > 0 {
		m["core.remote_read_p50_ns"] = all.remoteRead.quantile(0.5)
	}
	m["core.local_share"] = ratio(float64(all.localRead.n), float64(all.localRead.n+all.remoteRead.n))
}

// countLayers turns the counters diffed across the untraced rounds into the
// count-derived metrics of the target's path.
func countLayers(m map[string]float64, t target, a, b counts, ops float64) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	switch t.(type) {
	case *wireTarget:
		calls := d(a.rpc.Started, b.rpc.Started)
		m["rpc.calls_per_op"] = ratio(calls, ops)
		m["rpc.frames_per_call"] = ratio(d(a.rpc.FramesSent, b.rpc.FramesSent), calls)
		m["rpc.batch_fill"] = ratio(d(a.rpc.BatchedCalls, b.rpc.BatchedCalls), d(a.rpc.BatchesSent, b.rpc.BatchesSent))
		m["rpc.max_batch"] = float64(b.rpc.MaxBatch)
		m["rpc.shed"] = d(a.rpc.Shed, b.rpc.Shed)
		m["rpc.pending_end"] = float64(b.rpc.Pending)
		m["daemon.calls"] = d(a.handled, b.handled)
		m["daemon.errors"] = d(a.handlerErrs, b.handlerErrs)
	case *poolTarget:
		var hi, sum float64
		for i := range b.pool.StripeOps {
			n := d(a.pool.StripeOps[i], b.pool.StripeOps[i])
			hi, sum = max(hi, n), sum+n
		}
		m["core.stripe_skew"] = ratio(hi*float64(len(b.pool.StripeOps)), sum)
		ca, cb := a.pool.Cache, b.pool.Cache
		hits, misses := d(ca.Hits, cb.Hits), d(ca.Misses, cb.Misses)
		flushes := d(ca.Flushes, cb.Flushes)
		m["cache.hit_rate"] = ratio(hits, hits+misses)
		m["cache.fills_per_kop"] = ratio(1e3*d(ca.Fills, cb.Fills), ops)
		m["cache.evictions_per_kop"] = ratio(1e3*d(ca.Evictions, cb.Evictions), ops)
		m["cache.invalidations_per_kop"] = ratio(1e3*d(ca.Invalidations, cb.Invalidations), ops)
		m["cache.wc_flushes_per_kop"] = ratio(1e3*flushes, ops)
		m["cache.wc_bytes_per_flush"] = ratio(d(ca.FlushedBytes, cb.FlushedBytes), flushes)
		writes := float64(b.pool.Writes.Ops() - a.pool.Writes.Ops())
		m["coherence.invalidations_per_write"] = ratio(d(a.dir.Invalidations, b.dir.Invalidations), writes)
		m["coherence.back_invalidates_per_kop"] = ratio(1e3*d(a.dir.BackInvalidates, b.dir.BackInvalidates), ops)
	}
}

// runTraced is the -trace 1 child. Half the measured seconds run
// untraced in five rounds (the counters are diffed across them, and the
// traced throughput is compared with theirs), a sixth runs traced, then
// come the probes of the layers on the workload's path and, on the pool
// path, a sixth on a pool with the program's own tracing disabled. A
// metric of a layer the workload does not cross reads 0.
func runTraced(cfg config, w io.Writer) error {
	sp := cfg.sp
	rng := rand.New(rand.NewSource(cfg.seed))
	t, err := sp.build(true, false)
	if err != nil {
		return err
	}
	defer t.close()
	cs := newCallers(cfg)
	cfg.warm(t, cs)
	mr, err := newMachineRef()
	if err != nil {
		return err
	}
	defer mr.close()
	n, ns := cfg.plan(1./2, rounds)
	before := snap(t)
	plain, refNS := measure(t, cs, n, ns, mr)
	// One forced cycle inside the counted stretch, so the cost of a
	// collection at this heap size shows even when the rounds triggered none.
	runtime.GC()
	after := snap(t)
	all := merged(plain)
	plainOps := float64(all.total())
	med, spr := summarize(plain)

	_, tracedNS := cfg.plan(1./6, 1)
	traced, trs := measureTraced(t, cs, tracedNS)
	path, err := writeSpans(sp.name, trs)
	if err != nil {
		return err
	}

	m := map[string]float64{}
	for _, name := range timedNames {
		m["e2e."+name] = med[name]
		m["bench.round_spread_max"] = max(m["bench.round_spread_max"], spr[name])
	}
	spanLayers(m, trs, traced)
	countLayers(m, t, before, after, plainOps)
	m["memnode.materialized_pages"] = float64(after.allocatedBytes / memnode.PageSize)
	m["bench.trace_overhead_share"] = 1 - ratio(traced.values()["ops_per_s"], med["ops_per_s"])
	m["bench.ref_rtt_us"] = refNS / 1e3
	payload := float64(all.ops[kindRead]*uint64(sp.readSize) + all.ops[kindWrite]*uint64(sp.writeSize))
	allocBytes := float64(after.mem.TotalAlloc - before.mem.TotalAlloc)
	m["runtime.allocs_per_op"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), plainOps)
	m["runtime.alloc_bytes_per_op"] = ratio(allocBytes, plainOps)
	m["runtime.alloc_bytes_per_payload_byte"] = ratio(allocBytes, payload)
	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6

	if err := probeMemnode(m, sp, rng); err != nil {
		return err
	}
	// Self times derived by subtraction; a negative value says the probes
	// do not add up to the path, not that the layer runs backwards.
	switch p := t.(type) {
	case *wireTarget:
		if err := probeEcho(m, sp, min(200e6, tracedNS)); err != nil {
			return err
		}
		m["daemon.handler_us"] = m["rpc.call_p50_us"] - m["rpc.echo_p50_us"] - m["memnode.read_ns"]/1e3
	case *poolTarget:
		probeTranslate(m, p, rng)
		readP50 := traced.lat[kindRead].quantile(0.5)
		if !sp.cache {
			m["core.self_ns"] = readP50 - m["core.translate_ns"] - m["memnode.read_ns"]
			break
		}
		if err := probeCache(m); err != nil {
			return err
		}
		if err := probeCoherence(m, sp, rng); err != nil {
			return err
		}
		if m["cache.hit_rate"] >= 0.5 { // the median read is a cache hit
			m["core.self_ns"] = readP50 - m["cache.read_hit_ns"]
		} else { // the median read is a miss: fill, register, insert
			m["core.self_ns"] = readP50 - m["memnode.fill_read_ns"] - m["coherence.acquire_read_ns"] - m["cache.put_evict_ns"]
		}
	}

	if !sp.wire {
		// Same workload, same seed, on a pool built with the program's
		// own tracing off: what the default sampled tracing costs.
		off, err := sp.build(false, true)
		if err != nil {
			return err
		}
		ocs := newCallers(cfg)
		if !cfg.smoke {
			runRound(off, ocs, 500e6)
		}
		untaxed := runRound(off, ocs, tracedNS)
		m["telemetry.tax_share"] = 1 - ratio(med["ops_per_s"], untaxed.values()["ops_per_s"])
		cs = append(cs, ocs...)
	}

	fmt.Fprintf(w, "\n== %s  seed %d  traced: %d rounds x %.1f s untraced, %.1f s traced, probes ==\n",
		sp.name, cfg.seed, n, float64(ns)/1e9, float64(tracedNS)/1e9)
	fmt.Fprintf(w, "spans: %s\n", path)
	res := result{Metrics: map[string]metric{}}
	for _, lm := range layerMetrics {
		fmt.Fprintf(w, "%-36s %16.4f %s\n", lm.name, m[lm.name], lm.unit)
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
	}
	return finish(w, &res, cs, int(m["rpc.pending_end"]), false)
}
