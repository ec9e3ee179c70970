// Tail tolerance for the in-process data path: per-op deadline budgets,
// a bounded foreground admission budget, and per-server circuit breakers
// that shed replica-protected reads away from degraded (slow-but-alive)
// owners. The breaker state machine and the sentinels live in
// internal/rpc (tail.go there) so the transport and the in-process pool
// share one error contract; this file wires them into the pool's entry
// points and the locked access path.
//
// Lock order note: a breaker's mutex is a leaf — every foreground read
// consults it while holding a stripe lock (resolveLocked, the one place
// that chooses between the primary and a replica), and the breaker never
// calls back into the pool or blocks, so the existing commit-window →
// p.mu → stripe → ec.mu order is unchanged with breaker mutexes strictly
// innermost. The feed (startIO/endIO under the lock, feedBreaker after the
// unlock) covers every backing I/O of a foreground op: direct access,
// cache fill, vectored run and write-combiner flush batch. A cache hit
// touches no node, so it neither consults nor feeds a breaker.
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/rpc"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// Tail sentinels, shared with the transport so one errors.Is contract
// covers both the in-process and the live mode.
var (
	// ErrDeadlineExceeded reports an operation whose deadline budget ran
	// out (context deadline or Config.Tail.OpBudget).
	ErrDeadlineExceeded = rpc.ErrDeadlineExceeded
	// ErrOverloaded reports an operation shed by admission control
	// (Config.Tail.AdmissionLimit).
	ErrOverloaded = rpc.ErrOverloaded
	// ErrServerDegraded reports a read that could not be served because
	// the owner's circuit breaker is open and no live replica could
	// absorb it.
	ErrServerDegraded = rpc.ErrServerDegraded
)

// TailConfig is the tail-tolerance knob block (Config.Tail). The zero
// value disables everything, leaving the data path exactly as fast as
// before: no admission check, no budget materialization, no breakers.
type TailConfig struct {
	// OpBudget is the default per-op deadline budget applied by the
	// ...Ctx entry points when the caller's context carries no deadline
	// of its own (a caller deadline always wins). Ops over budget fail
	// with an error wrapping ErrDeadlineExceeded, checked between slice
	// segments. 0 disables.
	OpBudget time.Duration
	// AdmissionLimit bounds concurrent foreground accesses (Read/Write
	// and vectored variants); excess ops fail fast with an error
	// wrapping ErrOverloaded instead of queueing. 0 disables.
	AdmissionLimit int
	// Breaker enables per-server circuit breakers (the zero policy
	// disables them). Breakers are fed by access latencies and failures;
	// an open breaker sheds replica-protected reads to a live copy and
	// fails unprotected reads fast with ErrServerDegraded.
	Breaker rpc.BreakerPolicy
	// NowNS is the clock feeding budgets and breakers; nil means the
	// wall clock. Deterministic tests inject the sim clock.
	NowNS func() int64
}

// enabled reports whether any tail feature is on.
func (t *TailConfig) enabled() bool {
	return t.OpBudget > 0 || t.AdmissionLimit > 0 || t.Breaker.Enabled()
}

// tailState is the pool's runtime tail-tolerance state. All fields are
// written once in initTail; only inflight mutates afterwards.
type tailState struct {
	inflight atomic.Int64
	limit    int64
	budgetNS int64
	now      func() int64
	// breakers[s] guards server s; nil when breakers are disabled.
	breakers []*rpc.Breaker

	sheds         *telemetry.Counter
	replicaSheds  *telemetry.Counter
	degradedFails *telemetry.Counter
}

// initTail wires the tail-tolerance state from Config.Tail. Called once
// from New, before the pool is shared.
func (p *Pool) initTail() {
	t := &p.cfg.Tail
	if !t.enabled() {
		return
	}
	now := t.NowNS
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	p.tail.now = now
	p.tail.limit = int64(t.AdmissionLimit)
	p.tail.budgetNS = int64(t.OpBudget)
	p.tail.sheds = p.metrics.Counter("pool.sheds")
	if t.Breaker.Enabled() {
		p.tail.replicaSheds = p.metrics.Counter("pool.reads.replica_shed")
		p.tail.degradedFails = p.metrics.Counter("pool.reads.degraded_fail")
		p.tail.breakers = make([]*rpc.Breaker, len(p.cfg.Servers))
		for i := range p.tail.breakers {
			p.tail.breakers[i] = rpc.NewBreaker(t.Breaker, now)
		}
	}
}

// errPoolOverloaded is the preallocated admission rejection: shedding
// happens exactly when the pool is saturated, so rejecting must not add
// allocation pressure.
var errPoolOverloaded = fmt.Errorf("core: admission limit reached: %w", rpc.ErrOverloaded)

// errDegradedRead is the fast-fail for reads whose owner's breaker is
// open with no live replica to shed to.
var errDegradedRead = fmt.Errorf("core: owner degraded and no replica available: %w", rpc.ErrServerDegraded)

// admit reserves one foreground-op slot. Callers check p.tail.limit != 0
// first so the disabled case costs one predictable branch. The count is
// raised only by a compare-and-swap from below the limit: add-then-undo
// would let Inflight read limit+1 for a moment, which is what
// TestTailAdmissionStress caught on a loaded two-core box.
func (p *Pool) admit() bool {
	for {
		n := p.tail.inflight.Load()
		if n >= p.tail.limit {
			p.tail.sheds.Inc()
			return false
		}
		if p.tail.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release returns a foreground-op slot taken by admit.
func (p *Pool) release() { p.tail.inflight.Add(-1) }

// Inflight reports the current admitted foreground-op count (0 when
// admission control is off).
func (p *Pool) Inflight() int64 { return p.tail.inflight.Load() }

// withBudget applies the configured default op budget to a caller's
// context: when a budget is set and the caller brought no deadline of
// their own, the returned context carries one. The cancel func is non-nil
// exactly when a deadline was added. Budget errors surface through ctxErr,
// which classifies a passed deadline as ErrDeadlineExceeded. The
// context-less entry points carry no budget and never get here.
func (p *Pool) withBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.tail.budgetNS == 0 {
		return ctx, nil
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, nil
	}
	return context.WithTimeout(ctx, time.Duration(p.tail.budgetNS))
}

// breakerFor returns server s's breaker, or nil when breakers are off.
func (p *Pool) breakerFor(s addr.ServerID) *rpc.Breaker {
	if bs := p.tail.breakers; bs != nil && p.checkServer(s) == nil {
		return bs[s]
	}
	return nil
}

// breakerOpen reports whether server s's breaker is currently open. The
// breaker mutex is a leaf lock; see the package comment in this file.
func (p *Pool) breakerOpen(s addr.ServerID) bool {
	b := p.breakerFor(s)
	return b != nil && b.State() == rpc.BreakerOpen
}

// BreakerCounters snapshots server s's breaker totals (zero when
// breakers are disabled).
func (p *Pool) BreakerCounters(s addr.ServerID) rpc.BreakerCounters {
	if b := p.breakerFor(s); b != nil {
		return b.Counters()
	}
	return rpc.BreakerCounters{}
}

// ReportAccess feeds one externally observed access outcome against
// server s into its breaker — the hook for tests and external probes;
// the foreground path feeds itself via feedBreaker.
func (p *Pool) ReportAccess(s addr.ServerID, d time.Duration, err error) {
	if b := p.breakerFor(s); b != nil {
		b.RecordLatency(int64(d), err)
	}
}

// tailAccess carries one backing I/O's breaker-feed data out of the
// stripe-locked body that timed it, so recording — which takes the
// rpc-side breaker mutex — happens after the stripe lock is released and
// no rpc-reaching call of the feed ever runs under a stripe. A
// single-slice access keeps its record on the stack; a vectored one keeps
// one per run in its pooled scratch.
type tailAccess struct {
	armed   bool
	owner   addr.ServerID
	startNS int64
	ns      int64
	err     error
}

// startIO arms ta before a backing I/O against owner; with breakers off
// it is one nil check and ta stays unarmed.
func (p *Pool) startIO(ta *tailAccess, owner addr.ServerID) {
	if p.tail.breakers != nil {
		ta.armed, ta.owner, ta.startNS = true, owner, p.tail.now()
	}
}

// endIO closes the timing startIO opened and notes the I/O's outcome.
func (p *Pool) endIO(ta *tailAccess, err error) {
	if ta.armed {
		ta.ns, ta.err = p.tail.now()-ta.startNS, err
	}
}

// feedBreaker records one finished backing I/O, if it was armed, against
// its owner's breaker. Called after the stripe unlock.
func (p *Pool) feedBreaker(ta *tailAccess) {
	if ta.armed {
		p.tail.breakers[ta.owner].RecordLatency(ta.ns, ta.err)
	}
}
