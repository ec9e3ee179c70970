// Tail tolerance: the per-server circuit breaker, the adaptive latency
// quantile tracker, and the hedged-call wrapper. A donor server under
// local memory pressure is slow long before it is dead, and the crash-
// stop failure detector (MarkDead) never fires for it — these pieces
// keep the request path's tail bounded anyway:
//
//   - Breaker watches per-call outcomes and latencies and trips from
//     closed to open when the recent failure ratio crosses the policy
//     threshold; open calls fail fast with ErrServerDegraded instead of
//     queueing behind the degraded peer, and after a cool-down the
//     breaker half-opens and probes its way back to closed.
//   - QuantileTracker keeps an O(1) running estimate of a latency
//     quantile (Frugal-style stochastic approximation), feeding the
//     adaptive hedge delay.
//   - Hedger waits one adaptive delay for a primary call, then issues
//     the same call against a secondary (replica) transport; first
//     success wins and the loser is cancelled through WaitCtx's
//     pending-entry withdrawal.
//
// All time is injected (NowNS, Timer hooks), so the unit tests run on
// the simulated clock with no wall-clock reads.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------
// Quantile tracker

// QuantileTracker estimates a fixed quantile of a latency stream in O(1)
// space: each sample nudges the estimate up by step*q if it exceeds the
// estimate, down by step*(1-q) otherwise, so the estimate stalls where
// the fraction of samples above it is 1-q. The step adapts — it doubles
// while the stream is far from the estimate (distribution shift) and
// decays geometrically while tracking well — so the tracker both
// converges quickly and settles tightly. Safe for concurrent use.
type QuantileTracker struct {
	mu      sync.Mutex
	q       float64
	est     float64
	step    float64
	minStep float64
	n       uint64
}

// NewQuantileTracker tracks quantile q (0 < q < 1; out-of-range values
// fall back to 0.95).
func NewQuantileTracker(q float64) *QuantileTracker {
	if q <= 0 || q >= 1 {
		q = 0.95
	}
	return &QuantileTracker{q: q}
}

// Observe feeds one sample (nanoseconds). Negative samples are dropped.
func (t *QuantileTracker) Observe(ns float64) {
	if ns < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	if t.n == 1 {
		// Seed on the first sample: estimate there, step a quarter of it
		// (floored at 1ns) so early samples move the estimate decisively.
		t.est = ns
		t.step = ns / 4
		if t.step < 1 {
			t.step = 1
		}
		t.minStep = t.step / 64
		if t.minStep < 1 {
			t.minStep = 1
		}
		return
	}
	switch {
	case ns > t.est:
		t.est += t.step * t.q
	case ns < t.est:
		t.est -= t.step * (1 - t.q)
	}
	if t.est < 0 {
		t.est = 0
	}
	if d := ns - t.est; d > 8*t.step || -d > 8*t.step {
		t.step *= 2
	} else if t.step > t.minStep {
		t.step *= 0.98
		if t.step < t.minStep {
			t.step = t.minStep
		}
	}
}

// Estimate returns the current quantile estimate in nanoseconds (0 until
// the first sample).
func (t *QuantileTracker) Estimate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.est
}

// Samples reports how many samples have been observed.
func (t *QuantileTracker) Samples() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// ---------------------------------------------------------------------
// Circuit breaker

// BreakerState is a breaker's position in the closed/open/half-open
// state machine.
type BreakerState int32

const (
	// BreakerClosed passes calls through, counting outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails calls fast with ErrServerDegraded.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe calls; enough
	// consecutive successes close the breaker, any failure reopens it.
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

// BreakerPolicy tunes a circuit breaker. The zero value means "breaker
// disabled" to config consumers; NewBreaker fills defaults for any
// individual zero field.
type BreakerPolicy struct {
	// Window is the rolling sample window: once this many outcomes have
	// accumulated, the counts are halved, so old outcomes decay instead
	// of pinning the ratio forever. Default 32.
	Window int
	// MinSamples is the minimum outcome count before the failure ratio
	// is acted on. Default 8.
	MinSamples int
	// FailureRatio opens the breaker when failures/samples reaches it.
	// Default 0.5.
	FailureRatio float64
	// OpenFor is the cool-down after tripping before the breaker
	// half-opens. Default 100ms.
	OpenFor time.Duration
	// HalfOpenProbes is both the max concurrent probes admitted while
	// half-open and the consecutive successes needed to close. Default 3.
	HalfOpenProbes int
	// SlowCallNS counts a successful call at or above this latency as a
	// failure in RecordLatency — the slow-is-failure signal that trips
	// the breaker for degraded-but-alive peers. 0 means latency alone
	// never counts against the breaker.
	SlowCallNS int64
}

// Enabled reports whether the policy is non-zero, the config-level
// "breaker on" switch.
func (p BreakerPolicy) Enabled() bool { return p != BreakerPolicy{} }

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Window <= 0 {
		p.Window = 32
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 8
	}
	if p.FailureRatio <= 0 || p.FailureRatio > 1 {
		p.FailureRatio = 0.5
	}
	if p.OpenFor <= 0 {
		p.OpenFor = 100 * time.Millisecond
	}
	if p.HalfOpenProbes <= 0 {
		p.HalfOpenProbes = 3
	}
	return p
}

// BreakerCounters is a snapshot of a breaker's lifetime totals.
type BreakerCounters struct {
	State     BreakerState `json:"state"`
	Trips     uint64       `json:"trips"`
	FastFails uint64       `json:"fast_fails"`
	Probes    uint64       `json:"probes"`
}

// Breaker is a per-server circuit breaker. Its mutex is a leaf lock:
// nothing blocks, allocates into shared state, or calls back into the
// transport under it, so callers may consult a breaker while holding
// data-path locks (the core read path checks it under a stripe lock).
type Breaker struct {
	pol BreakerPolicy
	now func() int64

	mu             sync.Mutex
	state          BreakerState
	fails          int
	samples        int
	openedAt       int64
	probesInFlight int
	probeOK        int
	trips          uint64
	fastFails      uint64
	probes         uint64
}

// NewBreaker builds a breaker with pol (zero fields defaulted). now is
// the clock in nanoseconds; nil means the wall clock. Deterministic
// tests inject a simulated clock.
func NewBreaker(pol BreakerPolicy, now func() int64) *Breaker {
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	return &Breaker{pol: pol.withDefaults(), now: now}
}

// errBreakerOpen is the preallocated fast-fail error for open breakers.
var errBreakerOpen = fmt.Errorf("rpc: circuit breaker open: %w", ErrServerDegraded)

// breakerFailure classifies an outcome for the breaker: transport
// faults, spent budgets, and overload count against the peer; a dead
// verdict does not (crash-stop is MarkDead's jurisdiction, and feeding
// it here would keep the breaker tripping long after repair), and
// ordinary handler errors are the application's business.
func breakerFailure(err error) bool {
	return err != nil &&
		(errors.Is(err, ErrTransient) ||
			errors.Is(err, ErrDeadlineExceeded) ||
			errors.Is(err, ErrOverloaded))
}

// Allow reports whether a call may proceed. A nil return admits the call
// (and, while half-open, accounts it as a probe); a non-nil return wraps
// ErrServerDegraded and the caller must fail fast without touching the
// peer.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.now()-b.openedAt < int64(b.pol.OpenFor) {
			b.fastFails++
			return errBreakerOpen
		}
		// Cool-down over: half-open and admit this call as the first probe.
		b.state = BreakerHalfOpen
		b.probesInFlight, b.probeOK = 0, 0
	}
	if b.probesInFlight >= b.pol.HalfOpenProbes {
		b.fastFails++
		return errBreakerOpen
	}
	b.probesInFlight++
	b.probes++
	return nil
}

// Record feeds one call outcome. Failures are classified by
// breakerFailure; use RecordLatency to also apply the slow-call rule.
func (b *Breaker) Record(err error) {
	b.record(breakerFailure(err))
}

// RecordLatency feeds one call outcome with its duration: a successful
// call at or above SlowCallNS counts as a failure, which is how a
// degraded-but-responsive peer trips the breaker.
func (b *Breaker) RecordLatency(ns int64, err error) {
	fail := breakerFailure(err)
	if !fail && err == nil && b.pol.SlowCallNS > 0 && ns >= b.pol.SlowCallNS {
		fail = true
	}
	b.record(fail)
}

func (b *Breaker) record(fail bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		if b.probesInFlight > 0 {
			b.probesInFlight--
		}
		if fail {
			b.trip()
			return
		}
		b.probeOK++
		if b.probeOK >= b.pol.HalfOpenProbes {
			b.state = BreakerClosed
			b.fails, b.samples = 0, 0
		}
	case BreakerOpen:
		// Stale outcome from a call admitted before the trip: the window
		// it belonged to is gone.
	default: // closed
		b.samples++
		if fail {
			b.fails++
		}
		if b.samples >= b.pol.MinSamples &&
			float64(b.fails) >= b.pol.FailureRatio*float64(b.samples) {
			b.trip()
			return
		}
		if b.samples >= b.pol.Window {
			// Decay: halve the window so the ratio follows the present.
			b.samples /= 2
			b.fails /= 2
		}
	}
}

// trip moves to open. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.trips++
	b.fails, b.samples = 0, 0
	b.probesInFlight, b.probeOK = 0, 0
}

// State returns the breaker's current state, moving an expired open
// breaker to half-open first so pollers and callers agree.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now()-b.openedAt >= int64(b.pol.OpenFor) {
		b.state = BreakerHalfOpen
		b.probesInFlight, b.probeOK = 0, 0
	}
	return b.state
}

// Counters snapshots the breaker's totals.
func (b *Breaker) Counters() BreakerCounters {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerCounters{State: b.state, Trips: b.trips, FastFails: b.fastFails, Probes: b.probes}
}

// ---------------------------------------------------------------------
// Hedger

// HedgePolicy tunes the adaptive hedge delay: the delay is the tracked
// latency quantile times Multiplier, clamped to [MinDelay, MaxDelay].
// Until the tracker has a sample the delay is MaxDelay (hedge shyly
// while cold).
type HedgePolicy struct {
	// Quantile of primary-call latency the delay adapts to. Default 0.95.
	Quantile float64
	// Multiplier scales the quantile estimate. Default 2.
	Multiplier float64
	// MinDelay floors the hedge delay. Default 100µs.
	MinDelay time.Duration
	// MaxDelay caps the hedge delay and is the cold-start delay.
	// Default 100ms.
	MaxDelay time.Duration
}

func (p HedgePolicy) withDefaults() HedgePolicy {
	if p.Quantile <= 0 || p.Quantile >= 1 {
		p.Quantile = 0.95
	}
	if p.Multiplier <= 0 {
		p.Multiplier = 2
	}
	if p.MinDelay <= 0 {
		p.MinDelay = 100 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.MaxDelay < p.MinDelay {
		p.MaxDelay = p.MinDelay
	}
	return p
}

// HedgerStats is a snapshot of a hedger's lifetime totals.
type HedgerStats struct {
	Hedges      uint64 `json:"hedges"`
	HedgeWins   uint64 `json:"hedge_wins"`
	PrimaryWins uint64 `json:"primary_wins"`
}

// Hedger issues calls against a primary transport and, when the primary
// exceeds the adaptive hedge delay (or fails outright with a transport
// error), races a second copy of the call against a secondary transport
// holding the same bytes — for LMP reads, a replica holder, which is
// coherence-safe because foreground writes freeze replica bytes under
// the commit window, so primary and replica can never return different
// committed data for the same read. First success wins; the loser is
// cancelled through WaitCtx's pending-entry withdrawal, so no pending
// entry outlives the logical call.
//
// Hedging duplicates work, so it is for idempotent calls (reads).
type Hedger struct {
	primary   AsyncCaller
	secondary AsyncCaller
	pol       HedgePolicy
	tracker   *QuantileTracker

	// Timer schedules the hedge-delay signal and returns a stop func;
	// nil means time.AfterFunc. Deterministic tests inject their own
	// (e.g. an immediately-fired channel).
	Timer func(time.Duration) (<-chan struct{}, func())
	// Now is the latency clock in nanoseconds; nil means wall clock.
	Now func() int64
	// OnHedge, if set, observes every hedge fire before the secondary
	// call is issued (metrics, span annotations).
	OnHedge func(method byte)

	hedges      atomic.Uint64
	hedgeWins   atomic.Uint64
	primaryWins atomic.Uint64
}

// NewHedger builds a hedger over a primary and a secondary transport.
func NewHedger(primary, secondary AsyncCaller, pol HedgePolicy) *Hedger {
	pol = pol.withDefaults()
	return &Hedger{
		primary:   primary,
		secondary: secondary,
		pol:       pol,
		tracker:   NewQuantileTracker(pol.Quantile),
	}
}

// Tracker exposes the latency tracker feeding the adaptive delay.
func (h *Hedger) Tracker() *QuantileTracker { return h.tracker }

// Stats snapshots the hedger's totals.
func (h *Hedger) Stats() HedgerStats {
	return HedgerStats{
		Hedges:      h.hedges.Load(),
		HedgeWins:   h.hedgeWins.Load(),
		PrimaryWins: h.primaryWins.Load(),
	}
}

// Delay returns the current adaptive hedge delay.
func (h *Hedger) Delay() time.Duration {
	if h.tracker.Samples() == 0 {
		return h.pol.MaxDelay
	}
	d := time.Duration(h.tracker.Estimate() * h.pol.Multiplier)
	if d < h.pol.MinDelay {
		d = h.pol.MinDelay
	}
	if d > h.pol.MaxDelay {
		d = h.pol.MaxDelay
	}
	return d
}

func (h *Hedger) nowNS() int64 {
	if h.Now != nil {
		return h.Now()
	}
	return time.Now().UnixNano()
}

func (h *Hedger) timer(d time.Duration) (<-chan struct{}, func()) {
	if h.Timer != nil {
		return h.Timer(d)
	}
	ch := make(chan struct{})
	t := time.AfterFunc(d, func() { close(ch) })
	return ch, func() { t.Stop() }
}

// Call is Caller.Call with hedging.
func (h *Hedger) Call(method byte, payload []byte) ([]byte, error) {
	return h.CallCtx(nil, method, payload)
}

// CallCtx issues the call on the primary, waits up to the adaptive hedge
// delay, and hedges to the secondary if the primary is still out (or
// already failed). The caller's context cancels both legs.
func (h *Hedger) CallCtx(ctx context.Context, method byte, payload []byte) ([]byte, error) {
	start := h.nowNS()
	f := Async(h.primary, ctx, method, payload)
	fire, stop := h.timer(h.Delay())
	p, err, done := f.WaitOr(fire)
	if done {
		stop()
		if err == nil {
			h.tracker.Observe(float64(h.nowNS() - start))
			h.primaryWins.Add(1)
			return p, nil
		}
		// The primary failed outright — hedge immediately rather than
		// returning a degraded-path error the secondary could absorb.
	}
	return h.hedge(ctx, method, payload, f, done, err, start)
}

// cancelledCtx is a pre-cancelled context: WaitCtx against it withdraws
// a pending entry without waiting, the loser-cancellation primitive of
// the hedge race. One shared instance — no per-hedge allocation.
var cancelledCtx = func() context.Context {
	//lint:ignore ctxflow a process-lifetime pre-cancelled sentinel context, not a request root; nothing ever waits on it
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// hedge runs the second leg. f is the primary's future; primaryDone and
// perr carry its result when it already resolved (with an error).
func (h *Hedger) hedge(ctx context.Context, method byte, payload []byte, f *Future, primaryDone bool, perr error, start int64) ([]byte, error) {
	h.hedges.Add(1)
	if h.OnHedge != nil {
		h.OnHedge(method)
	}
	base := ctx
	if base == nil {
		//lint:ignore ctxflow nil means never-cancels by the transport contract; WithCancel needs a non-nil parent for the hedge leg
		base = context.Background()
	}
	hctx, hcancel := context.WithCancel(base)
	defer hcancel()
	g := Async(h.secondary, hctx, method, payload)
	if primaryDone {
		p, err := g.WaitCtx(ctx)
		if err == nil {
			h.hedgeWins.Add(1)
			return p, nil
		}
		return nil, perr // both legs failed: the primary's error is the story
	}
	// Race the two legs. The secondary is waited in a helper goroutine so
	// the primary's WaitOr can treat its completion as the abort signal;
	// the helper always exits once hctx is cancelled or the call resolves.
	sdone := make(chan struct{})
	var sp []byte
	var serr error
	go func() {
		sp, serr = g.WaitCtx(hctx)
		close(sdone)
	}()
	p, err, ok := f.WaitOr(sdone)
	if ok {
		// Primary resolved first: cancel the hedge leg and reap the helper.
		hcancel()
		<-sdone
		if err == nil {
			h.tracker.Observe(float64(h.nowNS() - start))
			h.primaryWins.Add(1)
			return p, nil
		}
		if serr == nil {
			h.hedgeWins.Add(1)
			return sp, nil
		}
		return nil, err
	}
	// Secondary resolved first.
	if serr == nil {
		h.hedgeWins.Add(1)
		// Cancel the primary through WaitCtx withdrawal: the pending
		// entry is taken and completed, so a late reply is dropped as
		// stale and nothing leaks.
		_, _ = f.WaitCtx(cancelledCtx)
		return sp, nil
	}
	// Secondary failed; fall back to the primary under the caller's ctx.
	p, err = f.WaitCtx(ctx)
	if err == nil {
		h.primaryWins.Add(1)
	}
	return p, err
}
