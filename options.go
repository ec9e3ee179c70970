package lmp

import (
	"time"

	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
)

// Option adjusts a pool configuration in New. Options run after the
// Config literal is read, so they win over (and can be mixed with) field
// assignments; the zero Config plus options is the idiomatic v1 way to
// build a pool:
//
//	pool, err := lmp.New(lmp.Config{Servers: servers},
//		lmp.WithPlacement(lmp.LocalityAware),
//		lmp.WithProtection(lmp.ProtectionPolicy{Scheme: lmp.ProtectReplica, Copies: 2}),
//	)
type Option func(*Config)

// WithPlacement selects the allocation placement policy (FirstFit,
// RoundRobin, LocalityAware, or Striped).
func WithPlacement(p alloc.Policy) Option {
	return func(c *Config) { c.Placement = p }
}

// WithProtection sets the default protection policy applied by Alloc.
// AllocProtected still overrides it per buffer.
func WithProtection(pol failure.Policy) Option {
	return func(c *Config) { c.Protection = pol }
}

// WithMigrationPolicy tunes the locality balancer (migration threshold,
// hysteresis, per-round move budget).
func WithMigrationPolicy(m MigrationPolicy) Option {
	return func(c *Config) { c.Migration = m }
}

// WithCoherentRegion sizes the coherent region and its directory
// granularity. Zero granularity keeps the default (64 bytes).
func WithCoherentRegion(bytes, granularity int64) Option {
	return func(c *Config) {
		c.CoherentBytes = bytes
		c.CoherenceGranularity = granularity
	}
}

// WithLocalCache enables the node-local hot-page cache and write
// combiner: each server keeps clean copies of hot remote pages in its
// private DRAM (coherence-safe — remote writers invalidate them through
// a page directory), and small remote writes coalesce into vectored
// flushes. The zero CacheConfig (beyond Enabled, which this option sets)
// picks the defaults: capacity 25% of each node's private carve-out,
// 4KiB pages, 16 shards, write combining on. Cache hit counts still feed
// the locality balancer, so sustained-hot pages are eventually migrated,
// not just cached.
func WithLocalCache(cc CacheConfig) Option {
	return func(c *Config) {
		cc.Enabled = true
		c.Cache = cc
	}
}

// WithRepairParallelism bounds the worker pool RepairServer fans slice
// reconstruction across. n <= 1 keeps recovery serial (the default):
// slices are rebuilt one at a time in deterministic table order, which
// chaos tests rely on. Larger n overlaps the fabric transfers of up to n
// independent rebuilds; each worker still commits its rebind under the
// ordinary locks, so foreground reads and writes interleave freely with
// an in-flight repair either way.
func WithRepairParallelism(n int) Option {
	return func(c *Config) { c.Repair.Parallelism = n }
}

// WithTracing configures per-op tracing: the span ring size, the
// sampling period, the slow-op threshold, and the clock. Tracing is on
// by default (sampling one op in 64 per issuing server); pass
// TraceConfig{Disabled: true} to turn spans and latency histograms off
// entirely — traffic counters stay on either way.
func WithTracing(tc TraceConfig) Option {
	return func(c *Config) { c.Trace = tc }
}

// WithObserver registers o to receive every completed span (OnSpan) and
// every span crossing the slow-op threshold (OnSlowOp) synchronously
// from the completing operation's goroutine. Observers must be fast and
// must not call back into the pool.
func WithObserver(o Observer) Option {
	return func(c *Config) { c.Trace.Observer = o }
}

// WithDeadlineBudget sets the default per-operation deadline budget: the
// ...Ctx entry points (ReadCtx, WriteCtx, ReadVCtx, WriteVCtx) apply it
// when the caller's context carries no deadline of its own (a caller
// deadline always wins); the context-less entry points carry no budget.
// Operations over budget fail with an error wrapping ErrDeadlineExceeded,
// checked between slice segments (between coalesced runs for a vectored
// op) so a multi-slice access cannot overstay unboundedly. d <= 0
// disables (the default).
func WithDeadlineBudget(d time.Duration) Option {
	return func(c *Config) { c.Tail.OpBudget = d }
}

// WithAdmissionLimit bounds concurrent foreground accesses (Read/Write
// and the vectored and ...Ctx variants): when n operations are already
// in flight, further ones fail fast with an error wrapping
// ErrOverloaded instead of queueing behind a saturated pool. n <= 0
// disables (the default). The disabled path costs nothing; the enabled
// path is one atomic per operation and stays allocation-free.
func WithAdmissionLimit(n int) Option {
	return func(c *Config) { c.Tail.AdmissionLimit = n }
}

// WithBreaker enables per-server circuit breakers fed by the latency and
// outcome of every backing access a foreground operation makes — direct
// reads and writes, cache fills, vectored runs and write-combiner flushes
// alike; a cache hit touches no server and feeds nothing. A server whose
// recent failure ratio (or slow-call ratio, see BreakerPolicy.SlowCallNS)
// trips the policy is marked degraded: every read that would reach it —
// Read, ReadV, and a cached pool's misses — is shed to a live copy when
// the buffer is replica-protected and otherwise fails fast with an error
// wrapping ErrServerDegraded (a ReadV without partial effects), and
// writes still reach the primary. After BreakerPolicy.OpenFor the breaker
// re-probes and closes on success. The zero policy disables.
func WithBreaker(pol BreakerPolicy) Option {
	return func(c *Config) { c.Tail.Breaker = pol }
}
