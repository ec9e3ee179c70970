package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// simClock is a hand-advanced nanosecond clock so every tail test runs
// on simulated time — no wall-clock reads, no sleeps, no flakes.
type simClock struct{ ns atomic.Int64 }

func (c *simClock) now() int64      { return c.ns.Load() }
func (c *simClock) advance(d int64) { c.ns.Add(d) }

// breakerEvent is one step of a breaker state-machine script.
type breakerEvent struct {
	advance int64 // clock advance before the event, ns
	fail    bool  // outcome to record (when record is set)
	record  bool
	allow   bool         // expect Allow to admit before recording
	state   BreakerState // expected state after the event
}

func TestBreakerStateMachine(t *testing.T) {
	pol := BreakerPolicy{
		Window:         8,
		MinSamples:     4,
		FailureRatio:   0.5,
		OpenFor:        time.Millisecond,
		HalfOpenProbes: 2,
	}
	fail := func(st BreakerState) breakerEvent {
		return breakerEvent{fail: true, record: true, allow: true, state: st}
	}
	ok := func(st BreakerState) breakerEvent {
		return breakerEvent{record: true, allow: true, state: st}
	}
	cases := []struct {
		name   string
		script []breakerEvent
	}{
		{"trips at ratio after min samples", []breakerEvent{
			fail(BreakerClosed), // 1/1 — under MinSamples, no trip
			ok(BreakerClosed),   // 1/2
			fail(BreakerClosed), // 2/3
			fail(BreakerOpen),   // 3/4 ≥ 0.5 with MinSamples met → trip
		}},
		{"stays closed under the ratio", []breakerEvent{
			ok(BreakerClosed), ok(BreakerClosed), ok(BreakerClosed),
			fail(BreakerClosed), ok(BreakerClosed), ok(BreakerClosed),
			fail(BreakerClosed), ok(BreakerClosed), ok(BreakerClosed),
		}},
		{"open fails fast then half-opens after cool-down", []breakerEvent{
			fail(BreakerClosed), fail(BreakerClosed), fail(BreakerClosed), fail(BreakerOpen),
			{state: BreakerOpen}, // Allow denied inside cool-down
			{advance: int64(2 * time.Millisecond), allow: true, record: true, state: BreakerHalfOpen}, // probe 1 ok
			ok(BreakerClosed), // probe 2 ok → closes
		}},
		{"half-open probe failure reopens", []breakerEvent{
			fail(BreakerClosed), fail(BreakerClosed), fail(BreakerClosed), fail(BreakerOpen),
			{advance: int64(2 * time.Millisecond), allow: true, record: true, fail: true, state: BreakerOpen},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &simClock{}
			b := NewBreaker(pol, clk.now)
			for i, ev := range tc.script {
				clk.advance(ev.advance)
				err := b.Allow()
				if ev.allow && err != nil {
					t.Fatalf("step %d: Allow denied: %v", i, err)
				}
				if !ev.allow {
					if err == nil {
						t.Fatalf("step %d: Allow admitted, want denial", i)
					}
					if !errors.Is(err, ErrServerDegraded) {
						t.Fatalf("step %d: denial %v does not wrap ErrServerDegraded", i, err)
					}
				}
				if ev.record {
					if ev.fail {
						b.Record(fmt.Errorf("boom: %w", ErrTransient))
					} else {
						b.Record(nil)
					}
				}
				if st := b.State(); st != ev.state {
					t.Fatalf("step %d: state %v, want %v", i, st, ev.state)
				}
			}
		})
	}
}

func TestBreakerFailureClassification(t *testing.T) {
	cases := []struct {
		err  error
		fail bool
	}{
		{nil, false},
		{fmt.Errorf("t: %w", ErrTransient), true},
		{fmt.Errorf("d: %w", ErrDeadlineExceeded), true},
		{fmt.Errorf("o: %w", ErrOverloaded), true},
		{fmt.Errorf("dead: %w", ErrServerDead), false}, // MarkDead's jurisdiction
		{errors.New("handler said no"), false},         // application error
	}
	for _, tc := range cases {
		if got := breakerFailure(tc.err); got != tc.fail {
			t.Fatalf("breakerFailure(%v) = %v, want %v", tc.err, got, tc.fail)
		}
	}
}

func TestBreakerSlowCallsTrip(t *testing.T) {
	clk := &simClock{}
	pol := BreakerPolicy{MinSamples: 4, FailureRatio: 0.5, SlowCallNS: 1000, OpenFor: time.Millisecond}
	b := NewBreaker(pol, clk.now)
	for i := 0; i < 4; i++ {
		b.RecordLatency(5000, nil) // successful but slow
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after 4 slow successes = %v, want open", st)
	}
	// Fast successes never count against the breaker.
	b2 := NewBreaker(pol, clk.now)
	for i := 0; i < 100; i++ {
		b2.RecordLatency(10, nil)
	}
	if st := b2.State(); st != BreakerClosed {
		t.Fatalf("state after fast successes = %v, want closed", st)
	}
}

func TestBreakerHalfOpenProbeCap(t *testing.T) {
	clk := &simClock{}
	pol := BreakerPolicy{MinSamples: 2, FailureRatio: 0.5, OpenFor: time.Millisecond, HalfOpenProbes: 2}
	b := NewBreaker(pol, clk.now)
	b.Record(fmt.Errorf("x: %w", ErrTransient))
	b.Record(fmt.Errorf("x: %w", ErrTransient))
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}
	clk.advance(int64(2 * time.Millisecond))
	if err := b.Allow(); err != nil {
		t.Fatalf("probe 1 denied: %v", err)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("probe 2 denied: %v", err)
	}
	if err := b.Allow(); err == nil {
		t.Fatal("probe 3 admitted past HalfOpenProbes")
	}
	c := b.Counters()
	if c.Probes != 2 || c.FastFails == 0 || c.Trips != 1 {
		t.Fatalf("counters = %+v, want 2 probes, ≥1 fast fail, 1 trip", c)
	}
	// Outcomes from before the trip land in the open state and are dropped.
	bStale := NewBreaker(pol, clk.now)
	bStale.Record(fmt.Errorf("x: %w", ErrTransient))
	bStale.Record(fmt.Errorf("x: %w", ErrTransient))
	bStale.Record(nil) // stale success against the open breaker
	if st := bStale.state; st != BreakerOpen {
		t.Fatalf("stale outcome moved an open breaker to %v", st)
	}
}

func TestBreakerPolicyEnabled(t *testing.T) {
	if (BreakerPolicy{}).Enabled() {
		t.Fatal("zero policy reports enabled")
	}
	if !(BreakerPolicy{MinSamples: 1}).Enabled() {
		t.Fatal("non-zero policy reports disabled")
	}
}

// TestAdmissionStress hammers a capped client from many goroutines with
// a mix of Call and CallAsyncCtx: the pending table must never exceed the
// cap, every future must resolve exactly once, and after the drain no
// pending entry may leak. Runs under -race in make race.
func TestAdmissionStress(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const limit = 8
	const workers = 32
	const perWorker = 50
	c.SetAdmissionLimit(limit)

	var peak atomic.Int64
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stopMon:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if p := int64(c.Stats().Pending); p > peak.Load() {
				peak.Store(p)
			}
		}
	}()

	var okOps, shedOps, resolved atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var err error
				switch i % 2 {
				case 0:
					_, err = c.Call(methEcho, []byte{byte(w)})
				default:
					f := c.CallAsyncCtx(nil, methEcho, []byte{byte(w), byte(i)})
					var p1 []byte
					p1, err = f.Wait()
					// Exactly-once resolution: a second wait observes the
					// same settled outcome, never a re-delivery.
					p2, err2 := f.Wait()
					if !errors.Is(err2, err) || string(p1) != string(p2) {
						t.Errorf("worker %d: future re-wait diverged: (%q,%v) vs (%q,%v)", w, p1, err, p2, err2)
						return
					}
					resolved.Add(1)
				}
				switch {
				case err == nil:
					okOps.Add(1)
				case errors.Is(err, ErrOverloaded):
					shedOps.Add(1)
				default:
					t.Errorf("worker %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopMon)
	monWG.Wait()

	if p := peak.Load(); p > limit {
		t.Fatalf("pending table peaked at %d, cap is %d", p, limit)
	}
	st := c.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending entries leaked after drain: %d", st.Pending)
	}
	if okOps.Load() == 0 {
		t.Fatal("no operation succeeded under the cap")
	}
	if st.Shed != uint64(shedOps.Load()) {
		t.Fatalf("ClientStats.Shed = %d, callers saw %d sheds", st.Shed, shedOps.Load())
	}
	t.Logf("ok=%d shed=%d peak_pending=%d", okOps.Load(), shedOps.Load(), peak.Load())
}
