// Tail tolerance: the per-server circuit breaker. A donor server under
// local memory pressure is slow long before it is dead, and the crash-
// stop failure detector (MarkDead) never fires for it. Breaker watches
// per-call outcomes and latencies and trips from closed to open when the
// recent failure ratio crosses the policy threshold; open calls fail fast
// with ErrServerDegraded instead of queueing behind the degraded peer,
// and after a cool-down the breaker half-opens and probes its way back to
// closed.
//
// The clock is injected, so the unit tests run on the simulated clock
// with no wall-clock reads.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

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
