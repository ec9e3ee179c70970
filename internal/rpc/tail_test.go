package rpc

import (
	"context"
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

func TestQuantileTrackerSeedsAndConverges(t *testing.T) {
	tr := NewQuantileTracker(0.95)
	if got := tr.Estimate(); got != 0 {
		t.Fatalf("estimate before any sample = %v, want 0", got)
	}
	tr.Observe(1000)
	if got := tr.Estimate(); got != 1000 {
		t.Fatalf("estimate after seeding = %v, want the first sample", got)
	}
	// A deterministic stream: 90% of samples at 1000ns, 10% at 10000ns.
	// P(X ≤ 1000) = 0.9 < 0.95, so the true p95 is the 10000ns mode; the
	// estimate must climb to its neighborhood, well above the body.
	for i := 0; i < 2000; i++ {
		if i%10 == 9 {
			tr.Observe(10000)
		} else {
			tr.Observe(1000)
		}
	}
	est := tr.Estimate()
	if est < 5000 || est > 20000 {
		t.Fatalf("p95 estimate %v not near the 10000ns tail mode", est)
	}
	if tr.Samples() != 2001 {
		t.Fatalf("samples = %d, want 2001", tr.Samples())
	}
}

func TestQuantileTrackerTracksShift(t *testing.T) {
	tr := NewQuantileTracker(0.5)
	for i := 0; i < 500; i++ {
		tr.Observe(1000)
	}
	// Distribution shifts 100x up; step doubling must chase it in far
	// fewer samples than a fixed-step SGD would need.
	for i := 0; i < 500; i++ {
		tr.Observe(100000)
	}
	if est := tr.Estimate(); est < 50000 {
		t.Fatalf("median estimate %v did not follow a 100x shift in 500 samples", est)
	}
	tr.Observe(-5)
	if n := tr.Samples(); n != 1000 {
		t.Fatalf("negative sample was counted: n=%d", n)
	}
}

func TestQuantileTrackerFallbackQuantile(t *testing.T) {
	for _, q := range []float64{0, 1, -3, 1.5} {
		tr := NewQuantileTracker(q)
		if tr.q != 0.95 {
			t.Fatalf("NewQuantileTracker(%v).q = %v, want fallback 0.95", q, tr.q)
		}
	}
}

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
			{state: BreakerOpen},                              // Allow denied inside cool-down
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

// scriptedCaller is a deterministic AsyncCaller: each call returns the
// next scripted future, in order. Unresolved futures are completed by
// the test.
type scriptedCaller struct {
	mu      sync.Mutex
	ncalls  int
	pending []func(payload []byte, err error)
	replies []scriptedReply
}

type scriptedReply struct {
	payload []byte
	err     error
	hold    bool // leave unresolved; test resolves via pending
}

func (s *scriptedCaller) Call(method byte, payload []byte) ([]byte, error) {
	return s.CallCtx(nil, method, payload)
}

func (s *scriptedCaller) CallCtx(ctx context.Context, method byte, payload []byte) ([]byte, error) {
	return s.CallAsyncCtx(ctx, method, payload).WaitCtx(ctx)
}

func (s *scriptedCaller) CallAsyncCtx(ctx context.Context, method byte, payload []byte) *Future {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.ncalls
	s.ncalls++
	if i >= len(s.replies) {
		return ResolvedFuture(nil, errors.New("scripted caller exhausted"))
	}
	r := s.replies[i]
	if !r.hold {
		return ResolvedFuture(r.payload, r.err)
	}
	f, resolve := PromiseFuture()
	s.pending = append(s.pending, resolve)
	return f
}

func (s *scriptedCaller) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ncalls
}

// neverTimer is a hedge timer that never fires.
func neverTimer(time.Duration) (<-chan struct{}, func()) {
	return make(chan struct{}), func() {}
}

// instantTimer fires immediately.
func instantTimer(time.Duration) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	close(ch)
	return ch, func() {}
}

func TestHedgerPrimaryFastWin(t *testing.T) {
	clk := &simClock{}
	p := &scriptedCaller{replies: []scriptedReply{{payload: []byte("primary")}}}
	sec := &scriptedCaller{}
	h := NewHedger(p, sec, HedgePolicy{})
	h.Now = clk.now
	h.Timer = neverTimer
	got, err := h.Call(9, []byte("req"))
	if err != nil || string(got) != "primary" {
		t.Fatalf("call = %q, %v", got, err)
	}
	if sec.calls() != 0 {
		t.Fatal("secondary was called although the primary answered inside the delay")
	}
	st := h.Stats()
	if st.PrimaryWins != 1 || st.Hedges != 0 {
		t.Fatalf("stats = %+v, want one primary win and no hedges", st)
	}
	if h.Tracker().Samples() != 1 {
		t.Fatal("primary win did not feed the latency tracker")
	}
}

func TestHedgerHedgeFiresAndWins(t *testing.T) {
	clk := &simClock{}
	p := &scriptedCaller{replies: []scriptedReply{{hold: true}}} // primary never answers
	sec := &scriptedCaller{replies: []scriptedReply{{payload: []byte("replica")}}}
	h := NewHedger(p, sec, HedgePolicy{})
	h.Now = clk.now
	h.Timer = instantTimer
	var hedgedMethod byte
	h.OnHedge = func(m byte) { hedgedMethod = m }
	got, err := h.Call(7, []byte("req"))
	if err != nil || string(got) != "replica" {
		t.Fatalf("call = %q, %v", got, err)
	}
	if hedgedMethod != 7 {
		t.Fatalf("OnHedge saw method %d, want 7", hedgedMethod)
	}
	st := h.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 || st.PrimaryWins != 0 {
		t.Fatalf("stats = %+v, want one hedge win", st)
	}
}

func TestHedgerPrimaryFailureHedgesImmediately(t *testing.T) {
	p := &scriptedCaller{replies: []scriptedReply{{err: fmt.Errorf("x: %w", ErrTransient)}}}
	sec := &scriptedCaller{replies: []scriptedReply{{payload: []byte("replica")}}}
	h := NewHedger(p, sec, HedgePolicy{})
	h.Timer = neverTimer // the timer never fires; the failure itself hedges
	got, err := h.Call(1, nil)
	if err != nil || string(got) != "replica" {
		t.Fatalf("call = %q, %v", got, err)
	}
	if st := h.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want an immediate hedge win", st)
	}
}

func TestHedgerBothLegsFailReportsPrimary(t *testing.T) {
	perr := fmt.Errorf("primary: %w", ErrTransient)
	p := &scriptedCaller{replies: []scriptedReply{{err: perr}}}
	sec := &scriptedCaller{replies: []scriptedReply{{err: errors.New("secondary also down")}}}
	h := NewHedger(p, sec, HedgePolicy{})
	h.Timer = neverTimer
	_, err := h.Call(1, nil)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want the primary's error", err)
	}
}

func TestHedgerSecondaryFailureFallsBackToPrimary(t *testing.T) {
	p := &scriptedCaller{replies: []scriptedReply{{hold: true}}}
	sec := &scriptedCaller{replies: []scriptedReply{{err: errors.New("replica down")}}}
	h := NewHedger(p, sec, HedgePolicy{})
	h.Timer = instantTimer
	done := make(chan struct{})
	var got []byte
	var err error
	go func() {
		got, err = h.Call(1, nil)
		close(done)
	}()
	// The hedge leg fails; the call must keep waiting on the primary.
	// Resolve it and the call completes with the primary's bytes.
	for {
		p.mu.Lock()
		n := len(p.pending)
		p.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	p.mu.Lock()
	resolve := p.pending[0]
	p.mu.Unlock()
	resolve([]byte("late primary"), nil)
	<-done
	if err != nil || string(got) != "late primary" {
		t.Fatalf("call = %q, %v", got, err)
	}
	if st := h.Stats(); st.PrimaryWins != 1 {
		t.Fatalf("stats = %+v, want the fallback counted as a primary win", st)
	}
}

func TestHedgerAdaptiveDelay(t *testing.T) {
	pol := HedgePolicy{Quantile: 0.95, Multiplier: 2, MinDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
	h := NewHedger(&scriptedCaller{}, &scriptedCaller{}, pol)
	if d := h.Delay(); d != pol.MaxDelay {
		t.Fatalf("cold-start delay = %v, want MaxDelay", d)
	}
	h.Tracker().Observe(float64(10 * time.Millisecond))
	if d := h.Delay(); d != 20*time.Millisecond {
		t.Fatalf("delay after a 10ms sample = %v, want est×multiplier = 20ms", d)
	}
	h.Tracker().Observe(0) // drive the estimate down toward the floor
	for i := 0; i < 5000; i++ {
		h.Tracker().Observe(1)
	}
	if d := h.Delay(); d != pol.MinDelay {
		t.Fatalf("delay = %v, want clamped to MinDelay", d)
	}
}

// TestAdmissionStress hammers a capped client from many goroutines with
// a mix of Call and CallAsync (and hedged calls layered on top): the
// pending table must never exceed the cap, every future must resolve
// exactly once, and after the drain no pending entry may leak. Runs
// under -race in make race.
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

	h := NewHedger(c, c, HedgePolicy{MinDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond})

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
				switch i % 3 {
				case 0:
					_, err = c.Call(methEcho, []byte{byte(w)})
				case 1:
					f := c.CallAsync(methEcho, []byte{byte(w), byte(i)})
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
				default:
					_, err = h.Call(methEcho, []byte{byte(i)})
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
	// A hedged call can shed on both legs while surfacing one error, so
	// the client-side counter is a lower-bounded superset of caller-visible
	// sheds.
	if st.Shed < uint64(shedOps.Load()) {
		t.Fatalf("ClientStats.Shed = %d, below the %d sheds callers saw", st.Shed, shedOps.Load())
	}
	t.Logf("ok=%d shed=%d hedges=%d peak_pending=%d", okOps.Load(), shedOps.Load(), h.Stats().Hedges, peak.Load())
}
