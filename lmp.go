// Package lmp is the public API of the Logical Memory Pool library, a
// reproduction of "Logical Memory Pools: Flexible and Local Disaggregated
// Memory" (HotNets '23).
//
// A logical memory pool carves the disaggregated memory pool out of each
// server's local DRAM instead of deploying a separate memory box on the
// CXL fabric. The library provides:
//
//   - the LMP runtime (Pool): allocation at stable logical addresses,
//     local/remote load-store access, two-step address translation (one
//     slice-table entry per 2 MiB slice names the owning server — the
//     coarse, replicated step — and the slice's extent there — the
//     fine step; Pool.Translate and every access read that entry),
//     locality balancing, shared-region sizing, a coherent region with
//     locks, and crash masking via replication or Reed–Solomon codes;
//   - the physical-pool baseline (NewPhysical): the same Pool deployed as
//     the paper's §3 strawman — compute servers that lend nothing and one
//     pool device that lends everything, with or without local caching;
//   - a live distributed mode where per-server daemons serve pool
//     operations over TCP.
//
// Quickstart:
//
//	pool, err := lmp.New(lmp.Config{
//		Servers: []lmp.ServerConfig{
//			{Name: "a", Capacity: 1 << 30, SharedBytes: 1 << 30},
//			{Name: "b", Capacity: 1 << 30, SharedBytes: 1 << 30},
//		},
//		Placement: lmp.LocalityAware,
//	})
//	buf, err := pool.Alloc(64<<20, 0)          // place 64MiB near server 0
//	err = pool.Write(0, buf.Addr(), data)      // local write
//	err = pool.Read(1, buf.Addr(), out)        // remote read from server 1
//
// # API v1
//
// The stable v1 surface is this package's exported identifiers:
//
//   - Construction: New with a Config, the one way to configure a pool:
//     each knob is one field, documented where it is declared, and its
//     zero value picks the default — Placement, Protection,
//     CoherenceGranularity, Cache (the node-local page cache), Trace,
//     Repair, Tail, and Clock (the one clock spans and breakers read).
//     Config holds what a deployment sets; the runtime's own tuning
//     (the balancer's thresholds, the breakers' window and cool-down,
//     the coherent region's size) is fixed, and the cache's shards and
//     write-combiner limits follow from its capacity.
//   - Tail tolerance: Config.Tail's OpBudget (default per-op deadline,
//     caller deadlines win), AdmissionLimit (shed instead of queue when
//     saturated), and Breaker (per-server circuit breakers, on with
//     Breaker.Enabled, that shed replica-protected reads away from
//     degraded owners; SlowCallNS sets what counts as slow on the
//     deployment's link). All off by default; the disabled data path is
//     unchanged.
//   - Access: Pool.Read / Pool.Write; Pool.ReadCtx / Pool.WriteCtx with
//     cancellation; vectored Pool.ReadV / Pool.WriteV (plus ...VCtx)
//     over []Vec, which lock all touched slices at once — in a
//     canonical order, so concurrent vectored operations never
//     deadlock — and coalesce physically contiguous runs per server.
//   - Buffers: Buffer.ReadAt / Buffer.WriteAt, and the standard-library
//     adapters Buffer.ReaderAt / Buffer.WriterAt (io.ReaderAt /
//     io.WriterAt) for composing pool memory with io.SectionReader,
//     io.Copy, and friends.
//   - Errors: failures classify with errors.Is against the sentinels in
//     errors.go — ErrServerDead, ErrReleased, ErrOutOfMemory,
//     ErrUnmapped, ErrDeadlineExceeded, ErrOverloaded,
//     ErrServerDegraded — and context cancellation surfaces as an error
//     wrapping ctx.Err(). A blown deadline budget additionally matches
//     context.DeadlineExceeded, so code written against the stdlib
//     classifies it too.
//
// Reaching into internal/... packages (the pre-v1 "direct struct" path)
// is unsupported and now impossible for new code: everything needed is
// re-exported here, and the internal layout is free to change between
// releases.
package lmp

import (
	"context"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/core"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// Core runtime types.
type (
	// Pool is a logical memory pool across a set of servers.
	Pool = core.Pool
	// Buffer is an allocation at a stable logical address range.
	Buffer = core.Buffer
	// Config configures a logical pool.
	Config = core.Config
	// ServerConfig describes one server joining the pool.
	ServerConfig = core.ServerConfig
	// PhysicalConfig configures the physical-pool baseline (NewPhysical).
	PhysicalConfig = core.PhysicalConfig
	// ServerID identifies a server participating in a pool.
	ServerID = addr.ServerID
	// Logical is an address in the pool's global address space.
	Logical = addr.Logical
	// Vec is one element of a vectored access (ReadV/WriteV): a logical
	// address and the bytes to transfer there.
	Vec = core.Vec
	// RunnerConfig configures the pool's background tasks.
	RunnerConfig = core.RunnerConfig
	// Runner owns a pool's background goroutines.
	Runner = core.Runner
	// AddressSpace is the application library's per-process VA view.
	AddressSpace = core.AddressSpace
	// Mapping is one buffer's window in an address space.
	Mapping = core.Mapping
	// CacheConfig configures the node-local hot-page cache and write
	// combiner (Config.Cache): on or off, capacity and page size. The
	// shard count and the combiner's flush limits follow from the
	// capacity.
	CacheConfig = core.CacheConfig
	// CacheStats aggregates hot-page cache and write-combiner traffic
	// (Pool.CacheStats).
	CacheStats = core.CacheStats
	// RepairConfig tunes the recovery/migration engine (Config.Repair):
	// worker parallelism for RepairServer and the injectable
	// fabric-delay hook benchmarks use to model remote-copy latency.
	RepairConfig = core.RepairConfig
	// TailConfig is the tail-tolerance knob block (Config.Tail): deadline
	// budgets, admission control, per-server breakers. The zero value
	// disables everything.
	TailConfig = core.TailConfig
	// BreakerPolicy switches the per-server circuit breakers on
	// (Config.Tail.Breaker) and sets the latency at which a successful
	// access counts as slow; the rest of a breaker's tuning is fixed.
	BreakerPolicy = core.BreakerPolicy
	// BreakerCounters snapshots one server's breaker: its current state
	// and its trip count (Pool.BreakerCounters).
	BreakerCounters = core.BreakerCounters
)

// Observability types (Pool.Stats, Pool.TraceSpans, Config.Trace).
// Stats snapshots are plain exported structs that marshal directly to
// JSON; spans identify one traced operation and its descendants across
// pool, cache, coherence, and recovery layers.
type (
	// PoolStats is the typed snapshot returned by Pool.Stats.
	PoolStats = core.PoolStats
	// ServerStats is one server's slice of a PoolStats snapshot.
	ServerStats = core.ServerStats
	// OpStats splits one access class (reads or writes) by locality.
	OpStats = core.OpStats
	// LatencyStats summarizes one sampled latency histogram.
	LatencyStats = core.LatencyStats
	// TraceConfig configures per-op tracing (Config.Trace). The zero
	// value enables tracing with defaults; set Disabled to opt out.
	TraceConfig = core.TraceConfig
	// Span is one completed traced operation.
	Span = telemetry.Span
	// SpanContext identifies a live span so child work can attach to it.
	SpanContext = telemetry.SpanContext
)

// ContextWithSpan returns a context carrying sc; pool operations invoked
// through the ...Ctx entry points with that context are always traced,
// recording their spans as children of sc.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return telemetry.ContextWithSpan(ctx, sc)
}

// SpanFromContext extracts the span identity carried by ctx, if any.
func SpanFromContext(ctx context.Context) SpanContext {
	return telemetry.SpanFromContext(ctx)
}

// Placement policies.
const (
	FirstFit      = alloc.FirstFit
	RoundRobin    = alloc.RoundRobin
	LocalityAware = alloc.LocalityAware
	Striped       = alloc.Striped
)

// SliceSize is the pool's allocation/migration granularity (2MiB).
const SliceSize = core.SliceSize

// New builds a logical pool from the configuration. It fails if the
// configuration names no servers, a server's shared region exceeds its
// capacity, or a policy fails validation. opts are applied to cfg first;
// see Option for why they remain.
func New(cfg Config, opts ...Option) (*Pool, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.New(cfg)
}

// NewPhysical builds the physical-pool baseline the paper compares
// against: an ordinary Pool whose servers 0..cfg.Servers-1 are compute
// servers lending nothing and whose last server is the pool device lending
// cfg.PoolBytes; cfg.LocalBytes > 0 gives every server a local page cache
// of that size (as Config.Cache does). Everything a Pool does applies —
// Alloc fails with ErrOutOfMemory beyond the device (it cannot borrow
// server DRAM: the Figure 5 infeasibility), Crash of the device raises a
// memory exception for every byte — because nothing is re-implemented.
func NewPhysical(cfg PhysicalConfig) (*Pool, error) { return core.NewPhysical(cfg) }

// Protection policies (failure masking, §5 "Failure domains").
type ProtectionPolicy = failure.Policy

// Protection schemes.
const (
	ProtectNone    = failure.None
	ProtectReplica = failure.Replicate
	ProtectErasure = failure.ErasureCode
)

// IsMemoryException reports whether err is the exception raised when
// unprotected pool data is lost in a server crash.
func IsMemoryException(err error) bool { return failure.IsMemoryException(err) }

// ServerLoad feeds the shared-region sizing optimizer.
type ServerLoad = core.ServerLoad
