// Tail tolerance for the in-process data path: per-op deadline budgets,
// a bounded foreground admission budget, and per-server circuit breakers
// that shed replica-protected reads away from degraded (slow-but-alive)
// owners. The sentinels live in internal/rpc so the transport and the
// in-process pool share one errors.Is contract; the breaker lives here,
// beside its only caller: the pool knows the replicas, so the pool owns
// the decision to route around a degraded server.
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
	"errors"
	"fmt"
	"sync"
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
// before: no admission check, no budget materialization, no breakers. A
// field at or below zero is off, whatever else is set.
type TailConfig struct {
	// OpBudget is the default per-op deadline budget: the ...Ctx entry
	// points (ReadCtx, WriteCtx, ReadVCtx, WriteVCtx) apply it when the
	// caller's context carries no deadline of its own (a caller deadline
	// always wins); the context-less entry points carry no budget. Ops
	// over budget fail with an error wrapping ErrDeadlineExceeded,
	// checked between slice segments (between coalesced runs for a
	// vectored op), so a multi-slice access cannot overstay unboundedly.
	// <= 0 disables.
	OpBudget time.Duration
	// AdmissionLimit bounds concurrent foreground accesses (Read/Write
	// and the vectored and ...Ctx variants): when this many are already
	// in flight, further ones fail fast with an error wrapping
	// ErrOverloaded instead of queueing behind a saturated pool. <= 0
	// disables. The disabled path costs nothing; the enabled path is one
	// atomic per operation and stays allocation-free. It is the pool's
	// one admission point: the transport sheds nothing.
	AdmissionLimit int
	// Breaker, when Enabled, arms per-server circuit breakers, fed by
	// the latency (timed with Config.Clock) and outcome of every backing
	// access a foreground operation makes — direct reads and writes,
	// cache fills, vectored runs and write-combiner flushes alike; a
	// cache hit touches no server and feeds nothing. A server whose
	// recent failure ratio (or slow-call ratio, see
	// BreakerPolicy.SlowCallNS) trips the breaker is marked degraded:
	// every read that would reach it — Read, ReadV, and a
	// cached pool's misses — is shed to a live copy when the buffer is
	// replica-protected and otherwise fails fast with an error wrapping
	// ErrServerDegraded (a ReadV without partial effects), and writes
	// still reach the primary. After a cool-down (breakerOpenFor) the
	// breaker re-probes and closes on success.
	Breaker BreakerPolicy
}

// enabled reports whether any tail feature is on.
func (t *TailConfig) enabled() bool {
	return t.OpBudget > 0 || t.AdmissionLimit > 0 || t.Breaker.Enabled
}

// tailState is the pool's runtime tail-tolerance state. All fields are
// written once in initTail; only inflight mutates afterwards.
type tailState struct {
	inflight atomic.Int64
	limit    int64
	budgetNS int64
	// breakers[s] guards server s; nil when breakers are disabled.
	breakers []*breaker

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
	// Only a positive value arms a feature, as enabled reads them: a
	// negative limit or budget kept here would shed or expire every op.
	p.tail.limit = int64(max(t.AdmissionLimit, 0))
	p.tail.budgetNS = int64(max(t.OpBudget, 0))
	p.tail.sheds = p.metrics.Counter("pool.sheds")
	if t.Breaker.Enabled {
		p.tail.replicaSheds = p.metrics.Counter("pool.reads.replica_shed")
		p.tail.degradedFails = p.metrics.Counter("pool.reads.degraded_fail")
		p.tail.breakers = make([]*breaker, len(p.cfg.Servers))
		pol := defaultBreakerPolicy
		pol.slowCallNS = t.Breaker.SlowCallNS
		for i := range p.tail.breakers {
			p.tail.breakers[i] = newBreaker(pol, p.cfg.Clock)
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
func (p *Pool) breakerFor(s addr.ServerID) *breaker {
	if bs := p.tail.breakers; bs != nil && p.checkServer(s) == nil {
		return bs[s]
	}
	return nil
}

// breakerOpen reports whether server s's breaker is currently open. The
// breaker mutex is a leaf lock; see the package comment in this file.
func (p *Pool) breakerOpen(s addr.ServerID) bool {
	b := p.breakerFor(s)
	return b != nil && b.State() == BreakerOpen
}

// BreakerCounters snapshots server s's breaker totals (zero when
// breakers are disabled).
func (p *Pool) BreakerCounters(s addr.ServerID) BreakerCounters {
	if b := p.breakerFor(s); b != nil {
		return b.Counters()
	}
	return BreakerCounters{}
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
// breaker mutex — happens after the stripe lock is released. A
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
		ta.armed, ta.owner, ta.startNS = true, owner, p.cfg.Clock()
	}
}

// endIO closes the timing startIO opened and notes the I/O's outcome.
func (p *Pool) endIO(ta *tailAccess, err error) {
	if ta.armed {
		ta.ns, ta.err = p.cfg.Clock()-ta.startNS, err
	}
}

// feedBreaker records one finished backing I/O, if it was armed, against
// its owner's breaker. Called after the stripe unlock.
func (p *Pool) feedBreaker(ta *tailAccess) {
	if ta.armed {
		p.tail.breakers[ta.owner].RecordLatency(ta.ns, ta.err)
	}
}

// BreakerState is a breaker's position in the closed/open/half-open
// state machine.
type BreakerState int32

const (
	// BreakerClosed routes reads to the owner, counting outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen sheds the owner's reads to a live replica, or fails
	// them fast with ErrServerDegraded when there is none.
	BreakerOpen
	// BreakerHalfOpen routes reads to the owner again;
	// breakerHalfOpenProbes consecutive successes close the breaker, any
	// failure reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// BreakerPolicy switches the per-server circuit breakers on
// (TailConfig.Breaker). Everything else about a breaker is fixed by the
// breaker* constants below; only the slow-call threshold is the
// deployment's to set, because what counts as slow depends on its link.
type BreakerPolicy struct {
	// Enabled turns the breakers on.
	Enabled bool
	// SlowCallNS counts a successful access at or above this latency as
	// a failure — the slow-is-failure signal that trips the breaker for
	// degraded-but-alive servers. 0 means latency alone never counts
	// against the breaker.
	SlowCallNS int64
}

// The breaker's tuning. None of these depends on the deployment.
const (
	// breakerWindow is the rolling sample window: once this many
	// outcomes have accumulated, the counts are halved, so old outcomes
	// decay instead of pinning the ratio forever.
	breakerWindow = 32
	// breakerMinSamples is the outcome count below which the failure
	// ratio is not acted on.
	breakerMinSamples = 8
	// breakerFailureRatio opens the breaker when failures/samples
	// reaches it.
	breakerFailureRatio = 0.5
	// breakerOpenFor is the cool-down after a trip before the breaker
	// half-opens.
	breakerOpenFor = 100 * time.Millisecond
	// breakerHalfOpenProbes is the run of consecutive successes a
	// half-open breaker needs to close.
	breakerHalfOpenProbes = 3
)

// breakerPolicy is one breaker's tuning: the constants above and the
// configured slow-call threshold. Tests swap in their own on a built
// pool's breakers.
type breakerPolicy struct {
	window         int
	minSamples     int
	failureRatio   float64
	openFor        time.Duration
	halfOpenProbes int
	slowCallNS     int64
}

var defaultBreakerPolicy = breakerPolicy{breakerWindow, breakerMinSamples, breakerFailureRatio, breakerOpenFor, breakerHalfOpenProbes, 0}

// BreakerCounters is a snapshot of a breaker: its current state and how
// many times it has tripped.
type BreakerCounters struct {
	State BreakerState `json:"state"`
	Trips uint64       `json:"trips"`
}

// breaker is one server's circuit breaker. A donor server under local
// memory pressure is slow long before it is dead, and crash-stop
// detection never fires for it: the breaker watches the outcomes and
// latencies of the pool's backing I/O against the server and trips from
// closed to open when the recent failure ratio crosses the policy
// threshold. After the cool-down it half-opens, and the pool's reads probe
// their way back to closed. Its mutex is a leaf lock (see the file
// comment).
type breaker struct {
	pol breakerPolicy
	now func() int64

	mu       sync.Mutex
	state    BreakerState
	fails    int
	samples  int
	openedAt int64
	probeOK  int
	trips    uint64
}

// newBreaker builds a breaker with pol on the nanosecond clock now.
func newBreaker(pol breakerPolicy, now func() int64) *breaker {
	return &breaker{pol: pol, now: now}
}

// breakerFailure classifies an outcome for the breaker: transport
// faults, spent budgets, and overload count against the server; a dead
// verdict does not (crash-stop is repair's jurisdiction, and feeding it
// here would keep the breaker tripping long after repair), and ordinary
// errors are the application's business.
func breakerFailure(err error) bool {
	return err != nil &&
		(errors.Is(err, rpc.ErrTransient) ||
			errors.Is(err, rpc.ErrDeadlineExceeded) ||
			errors.Is(err, rpc.ErrOverloaded))
}

// RecordLatency feeds one access outcome with its duration: a successful
// access at or above SlowCallNS counts as a failure, which is how a
// degraded-but-responsive server trips the breaker.
func (b *breaker) RecordLatency(ns int64, err error) {
	fail := breakerFailure(err)
	if err == nil && b.pol.slowCallNS > 0 && ns >= b.pol.slowCallNS {
		fail = true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		if fail {
			b.trip()
			return
		}
		b.probeOK++
		if b.probeOK >= b.pol.halfOpenProbes {
			b.state = BreakerClosed
			b.fails, b.samples = 0, 0
		}
	case BreakerOpen:
		// Stale outcome from an access that started before the trip: the
		// window it belonged to is gone.
	default: // closed
		b.samples++
		if fail {
			b.fails++
		}
		if b.samples >= b.pol.minSamples &&
			float64(b.fails) >= b.pol.failureRatio*float64(b.samples) {
			b.trip()
			return
		}
		if b.samples >= b.pol.window {
			// Decay: halve the window so the ratio follows the present.
			b.samples /= 2
			b.fails /= 2
		}
	}
}

// trip moves to open. Caller holds b.mu.
func (b *breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.trips++
	b.fails, b.samples, b.probeOK = 0, 0, 0
}

// expire moves an open breaker whose cool-down has passed to half-open,
// so every reader of the state sees the one the read path acts on.
// Caller holds b.mu.
func (b *breaker) expire() {
	if b.state == BreakerOpen && b.now()-b.openedAt >= int64(b.pol.openFor) {
		b.state = BreakerHalfOpen
		b.probeOK = 0
	}
}

// State returns the breaker's current state.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expire()
	return b.state
}

// Counters snapshots the breaker's state and trip count.
func (b *breaker) Counters() BreakerCounters {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expire()
	return BreakerCounters{State: b.state, Trips: b.trips}
}
