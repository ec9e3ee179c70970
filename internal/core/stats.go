package core

import (
	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// Typed observability snapshots: the v1 replacement for handing callers
// the raw telemetry registry. Every field is exported and JSON-tagged so
// a Stats() result marshals directly into dashboards, test goldens, and
// the daemon's /stats endpoint. Reading a snapshot is cheap (atomic
// loads, no locks on the data path) and safe while traffic is flowing;
// the numbers are per-counter coherent, not a single global cut.

// OpStats splits one access class (reads or writes) by locality.
type OpStats struct {
	LocalOps    uint64 `json:"local_ops"`
	RemoteOps   uint64 `json:"remote_ops"`
	LocalBytes  uint64 `json:"local_bytes"`
	RemoteBytes uint64 `json:"remote_bytes"`
}

// Ops is the access count across both localities.
func (o OpStats) Ops() uint64 { return o.LocalOps + o.RemoteOps }

// Bytes is the payload across both localities.
func (o OpStats) Bytes() uint64 { return o.LocalBytes + o.RemoteBytes }

// LatencyStats summarizes one sampled op-latency histogram. All times
// are nanoseconds. Zero when tracing is disabled
// (Config.Trace.Disabled) — the histograms only see sampled ops.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  float64 `json:"p50_ns"`
	P99NS  float64 `json:"p99_ns"`
	P999NS float64 `json:"p999_ns"`
	MaxNS  float64 `json:"max_ns"`
}

func latencyStats(h *telemetry.Histogram) LatencyStats {
	if h == nil {
		return LatencyStats{}
	}
	s := h.Snapshot()
	out := LatencyStats{
		Count:  s.Count,
		P50NS:  s.Quantile(0.5),
		P99NS:  s.Quantile(0.99),
		P999NS: s.Quantile(0.999),
		MaxNS:  s.Max,
	}
	if s.Count > 0 {
		out.MeanNS = s.Sum / float64(s.Count)
	}
	return out
}

// ServerStats is one server's view of pool traffic: configuration,
// liveness, and who is driving load at its backing memory.
type ServerStats struct {
	ID          int    `json:"id"`
	Name        string `json:"name"`
	Dead        bool   `json:"dead"`
	Capacity    int64  `json:"capacity"`
	SharedBytes int64  `json:"shared_bytes"`
	// Ops and Bytes count accesses backed by this server's memory,
	// regardless of which server issued them.
	Ops   uint64 `json:"ops"`
	Bytes uint64 `json:"bytes"`
	// OpsByIssuer breaks Ops down by issuing server: OpsByIssuer[j] is
	// the number of this server's backing accesses issued by server j —
	// one row of the server-to-server traffic matrix. It is observability
	// only: the locality balancer plans from the per-slice counters of
	// the slice entries, which Stats does not report.
	OpsByIssuer []uint64 `json:"ops_by_issuer"`
}

// PoolStats is the typed snapshot of a pool's operational state,
// returned by Pool.Stats.
type PoolStats struct {
	Reads  OpStats `json:"reads"`
	Writes OpStats `json:"writes"`

	Allocs         uint64 `json:"allocs"`
	BytesAllocated int64  `json:"bytes_allocated"`
	Migrations     uint64 `json:"migrations"`
	Recoveries     uint64 `json:"recoveries"`
	Crashes        uint64 `json:"crashes"`
	Compactions    uint64 `json:"compactions"`
	Resizes        uint64 `json:"resizes"`
	// RepairBlocks counts protection blocks re-homed by RepairServer.
	RepairBlocks uint64 `json:"repair_blocks"`

	Servers []ServerStats `json:"servers"`
	// StripeOps counts data-path accesses per slice-lock stripe; a
	// heavily skewed distribution means lock contention, not capacity,
	// bounds throughput.
	StripeOps []uint64 `json:"stripe_ops"`

	Cache CacheStats `json:"cache"`

	// Sampled latency tails per op kind (see TraceConfig.SampleEvery).
	ReadLatency   LatencyStats `json:"read_latency"`
	WriteLatency  LatencyStats `json:"write_latency"`
	ReadVLatency  LatencyStats `json:"readv_latency"`
	WriteVLatency LatencyStats `json:"writev_latency"`

	// SpansPublished counts spans ever recorded (the ring retains the
	// most recent TraceConfig.RingSize of them); SlowOps counts recorded
	// spans that crossed the slow-op threshold.
	SpansPublished uint64 `json:"spans_published"`
	SlowOps        uint64 `json:"slow_ops"`
}

// Stats captures a typed snapshot of the pool's counters, per-server
// traffic, cache state, and sampled latency distributions. It is safe
// to call concurrently with data-path traffic.
func (p *Pool) Stats() PoolStats {
	c := func(name string) uint64 { return p.metrics.Counter(name).Value() }
	st := PoolStats{
		Reads: OpStats{
			LocalOps:    c("pool.reads.local"),
			RemoteOps:   c("pool.reads.remote"),
			LocalBytes:  c("pool.bytes.read.local"),
			RemoteBytes: c("pool.bytes.read.remote"),
		},
		Writes: OpStats{
			LocalOps:    c("pool.writes.local"),
			RemoteOps:   c("pool.writes.remote"),
			LocalBytes:  c("pool.bytes.write.local"),
			RemoteBytes: c("pool.bytes.write.remote"),
		},
		Allocs:         c("pool.allocs"),
		BytesAllocated: p.metrics.Gauge("pool.bytes_allocated").Value(),
		Migrations:     c("pool.migrations"),
		Recoveries:     c("pool.recoveries"),
		Crashes:        c("pool.crashes"),
		Compactions:    c("pool.compactions"),
		Resizes:        c("pool.resizes"),
		RepairBlocks:   c("pool.repair.protection_blocks"),
		Cache:          p.CacheStats(),
	}
	st.Servers = make([]ServerStats, len(p.nodes))
	for i, n := range p.nodes {
		ss := ServerStats{
			ID:          i,
			Name:        p.cfg.Servers[i].Name,
			Dead:        p.isDead(addr.ServerID(i)),
			Capacity:    p.cfg.Servers[i].Capacity,
			SharedBytes: sharedBytes(n),
			OpsByIssuer: make([]uint64, p.srvOps[i].Lanes()),
		}
		for j := range ss.OpsByIssuer {
			ss.OpsByIssuer[j] = p.srvOps[i].Lane(j)
		}
		ss.Ops = p.srvOps[i].Value()
		ss.Bytes = p.srvBytes[i].Value()
		st.Servers[i] = ss
	}
	st.StripeOps = make([]uint64, p.stripeOps.Lanes())
	for i := range st.StripeOps {
		st.StripeOps[i] = p.stripeOps.Lane(i)
	}
	if o := p.obs; o != nil {
		st.ReadLatency = latencyStats(o.lat[trRead])
		st.WriteLatency = latencyStats(o.lat[trWrite])
		st.ReadVLatency = latencyStats(o.lat[trReadV])
		st.WriteVLatency = latencyStats(o.lat[trWriteV])
		st.SpansPublished = o.tracer.Published()
		st.SlowOps = o.tracer.SlowOps()
	}
	return st
}
