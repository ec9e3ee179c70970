package core

// Tests for the in-process tail-tolerance layer (tail.go): admission
// control determinism and stress, deadline-budget semantics and error
// classification, breaker-driven replica sheds, the zero-alloc contract
// with tail features armed, and the elasticity-under-load chaos property
// test (TestChaosElasticity*, swept by make chaos).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/rpc"
)

// tailClock is a deterministic nanosecond clock for breaker tests.
type tailClock struct{ ns atomic.Int64 }

func (c *tailClock) now() int64              { return c.ns.Load() }
func (c *tailClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// tailTestPool builds the standard 4-server pool with the given tail
// config armed.
func tailTestPool(t *testing.T, tail TailConfig) *Pool {
	t.Helper()
	return tailTestPoolFrom(t, Config{Tail: tail})
}

// tailTestPoolFrom is tailTestPool with the rest of cfg (tail, cache,
// clock) set by the caller.
func tailTestPoolFrom(t *testing.T, cfg Config) *Pool {
	t.Helper()
	cfg.Placement = alloc.LocalityAware
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{
			Name:        "srv",
			Capacity:    16 * SliceSize,
			SharedBytes: 16 * SliceSize,
		})
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tailBreakerPolicy trips after 4+ samples at >=50% failures and stays
// open for an hour of (simulated) clock, so tests control reopening.
func tailBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{
		Window:         16,
		MinSamples:     4,
		FailureRatio:   0.5,
		OpenFor:        time.Hour,
		HalfOpenProbes: 1,
	}
}

// TestTailDisabledZeroCost pins the disabled contract: a tail knob at or
// below zero arms nothing — no admission state, no budget, withBudget an
// identity — and the plain path runs, even when another tail feature is
// on. Kept as a negative value, the limit shed every op and the budget
// expired every ...Ctx op.
func TestTailDisabledZeroCost(t *testing.T) {
	for _, row := range []struct {
		name     string
		tail     TailConfig
		limit    int64
		breakers bool
	}{
		{"zero", TailConfig{}, 0, false},
		{"limit=-1+breaker", TailConfig{AdmissionLimit: -1, Breaker: tailBreakerPolicy()}, 0, true},
		{"budget=-1+limit", TailConfig{OpBudget: -1, AdmissionLimit: 8}, 8, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := tailTestPool(t, row.tail)
			b, err := p.Alloc(SliceSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			for i := 0; i < 4; i++ {
				if err := p.Write(1, b.Addr(), []byte("plain path")); err != nil {
					t.Fatalf("Write: %v", err)
				}
				if err := p.Read(1, b.Addr(), buf); err != nil {
					t.Fatalf("Read: %v", err)
				}
				if err := p.ReadCtx(context.Background(), 1, b.Addr(), buf); err != nil {
					t.Fatalf("ReadCtx: %v", err)
				}
			}
			if p.tail.limit != row.limit || p.tail.budgetNS != 0 || (p.tail.breakers != nil) != row.breakers {
				t.Fatalf("armed state: limit=%d budgetNS=%d breakers=%v, want limit=%d, no budget, breakers %v",
					p.tail.limit, p.tail.budgetNS, p.tail.breakers, row.limit, row.breakers)
			}
			if got := p.Inflight(); got != 0 {
				t.Fatalf("Inflight = %d, want 0", got)
			}
			if c := p.BreakerCounters(0); c != (BreakerCounters{}) {
				t.Fatalf("BreakerCounters of an untripped server = %+v", c)
			}
			ctx := context.Background()
			got, cancel := p.withBudget(ctx)
			if got != ctx || cancel != nil {
				t.Fatal("withBudget with no budget must be an identity")
			}
		})
	}
}

// TestTailAdmissionControl saturates the admission budget directly (no
// timing involved) and checks every foreground entry point sheds with
// ErrOverloaded, then recovers once slots free up.
func TestTailAdmissionControl(t *testing.T) {
	p := tailTestPool(t, TailConfig{AdmissionLimit: 2})
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if err := p.Write(0, b.Addr(), buf); err != nil {
		t.Fatal(err)
	}

	// Occupy both slots; every entry point must now shed, not queue.
	p.tail.inflight.Add(2)
	ops := []struct {
		name string
		call func() error
	}{
		{"Read", func() error { return p.Read(1, b.Addr(), buf) }},
		{"Write", func() error { return p.Write(1, b.Addr(), buf) }},
		{"ReadV", func() error { return p.ReadV(1, []Vec{{Addr: b.Addr(), Data: buf}}) }},
		{"WriteV", func() error { return p.WriteV(1, []Vec{{Addr: b.Addr(), Data: buf}}) }},
		{"ReadCtx", func() error { return p.ReadCtx(context.Background(), 1, b.Addr(), buf) }},
		{"WriteCtx", func() error { return p.WriteCtx(context.Background(), 1, b.Addr(), buf) }},
	}
	for _, op := range ops {
		err := op.call()
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("%s while saturated: got %v, want ErrOverloaded", op.name, err)
		}
		if !errors.Is(err, rpc.ErrOverloaded) {
			t.Fatalf("%s: core and rpc overload sentinels diverged", op.name)
		}
	}
	if got := p.metrics.Counter("pool.sheds").Value(); got != uint64(len(ops)) {
		t.Fatalf("pool.sheds = %d, want %d", got, len(ops))
	}

	// Free the slots: the same ops all succeed again.
	p.tail.inflight.Add(-2)
	for _, op := range ops {
		if err := op.call(); err != nil {
			t.Fatalf("%s after release: %v", op.name, err)
		}
	}
	if got := p.Inflight(); got != 0 {
		t.Fatalf("Inflight after drain = %d, want 0 (leaked slot)", got)
	}
}

// TestTailAdmissionStress hammers a small admission budget from many
// goroutines: admitted count never exceeds the limit, every failure is
// ErrOverloaded, and no slot leaks after the drain. Run under -race.
func TestTailAdmissionStress(t *testing.T) {
	const limit, workers, opsEach = 3, 12, 120
	p := tailTestPool(t, TailConfig{AdmissionLimit: limit})
	b, err := p.Alloc(2*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, 2*SliceSize)
	if err := p.Write(0, b.Addr(), seed); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var peak atomic.Int64
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := p.Inflight(); got > peak.Load() {
				peak.Store(got)
			}
		}
	}()

	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, SliceSize)
			for i := 0; i < opsEach; i++ {
				err := p.Read(addr.ServerID(w%4), b.Addr(), buf)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				default:
					t.Errorf("worker %d op %d: unexpected error %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	monWG.Wait()

	if got := peak.Load(); got > limit {
		t.Fatalf("observed %d concurrent admitted ops, limit %d", got, limit)
	}
	if ok.Load() == 0 {
		t.Fatal("no op was ever admitted")
	}
	if got := p.Inflight(); got != 0 {
		t.Fatalf("Inflight after drain = %d, want 0 (leaked slot)", got)
	}
	if total := ok.Load() + shed.Load(); total != workers*opsEach {
		t.Fatalf("ops accounted = %d, want %d", total, workers*opsEach)
	}
	if got := p.metrics.Counter("pool.sheds").Value(); got != uint64(shed.Load()) {
		t.Fatalf("pool.sheds = %d, callers saw %d sheds", got, shed.Load())
	}
}

// TestTailWithBudget pins the budget-materialization rules: no budget is
// an identity, a caller deadline always wins, and a bare context gets
// the configured budget as its deadline. (The context-less entry points
// carry no budget: TestTailBudgetContract.)
func TestTailWithBudget(t *testing.T) {
	p := tailTestPool(t, TailConfig{OpBudget: time.Hour})

	// Caller deadline wins: same context back, no cancel to run.
	caller, cancelCaller := context.WithTimeout(context.Background(), time.Minute)
	defer cancelCaller()
	got, cancel := p.withBudget(caller)
	if got != caller || cancel != nil {
		t.Fatal("caller deadline must win over the op budget")
	}

	// Bare context: budget becomes the deadline.
	got, cancel = p.withBudget(context.Background())
	if cancel == nil {
		t.Fatal("budget not materialized on a bare context")
	}
	defer cancel()
	dl, ok := got.Deadline()
	if !ok {
		t.Fatal("budget context has no deadline")
	}
	if until := time.Until(dl); until <= 50*time.Minute || until > time.Hour {
		t.Fatalf("budget deadline %v out, want ~1h", until)
	}
}

// TestTailDeadlineClassification pins the error contract: an expired
// deadline surfaces as ErrDeadlineExceeded (and context.DeadlineExceeded
// for callers matching on the stdlib), while a plain cancellation stays
// a cancellation.
func TestTailDeadlineClassification(t *testing.T) {
	p := tailTestPool(t, TailConfig{OpBudget: time.Hour})
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	// The lazily-armed deadline timer may not have fired yet; wait for
	// the context to report done so the check below is deterministic.
	<-expired.Done()
	err = p.ReadCtx(expired, 1, b.Addr(), buf)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v must also match context.DeadlineExceeded", err)
	}

	cancelled, cause := context.WithCancel(context.Background())
	cause()
	err = p.WriteCtx(cancelled, 1, b.Addr(), buf)
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("cancellation misclassified as deadline: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestTailBudgetExpiresDeterministic drives a budget-derived context to
// expiry and then issues the op: the configured OpBudget must surface as
// ErrDeadlineExceeded through the public entry points.
func TestTailBudgetExpiresDeterministic(t *testing.T) {
	p := tailTestPool(t, TailConfig{OpBudget: time.Nanosecond})
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize the budget exactly as the entry points do, wait for it
	// to pass, then call with it: the caller-deadline-wins rule routes it
	// straight to classification with no timing sensitivity.
	ctx, cancel := p.withBudget(context.Background())
	if cancel == nil {
		t.Fatal("budget not materialized")
	}
	defer cancel()
	<-ctx.Done()
	err = p.ReadCtx(ctx, 1, b.Addr(), make([]byte, 16))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired budget: got %v, want ErrDeadlineExceeded", err)
	}
}

// TestTailBudgetExpiresMidOp catches a budget expiring between slice
// segments of a large read: with a 1ns budget the deadline timer fires
// while the multi-slice copy is in flight. Bounded retries absorb the
// (unlikely) schedule where the whole op beats the timer.
func TestTailBudgetExpiresMidOp(t *testing.T) {
	p := tailTestPool(t, TailConfig{OpBudget: time.Nanosecond})
	b, err := p.Alloc(8*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8*SliceSize)
	for i := 0; i < 100; i++ {
		err := p.ReadCtx(context.Background(), 1, b.Addr(), buf)
		if err == nil {
			continue // beat the timer; try again
		}
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("attempt %d: got %v, want ErrDeadlineExceeded", i, err)
		}
		return
	}
	t.Fatal("1ns budget never expired across 100 16MiB reads")
}

// TestTailReplicaShedOnOpenBreaker trips the owner's breaker and checks
// reads of a replica-protected buffer are served from a live copy with
// committed bytes, writes still reach the primary (and its replicas),
// and the shed counters advance.
func TestTailReplicaShedOnOpenBreaker(t *testing.T) {
	clk := &tailClock{}
	p := tailTestPoolFrom(t, Config{Tail: TailConfig{Breaker: tailBreakerPolicy()}, Clock: clk.now})
	b, err := p.AllocProtected(2*SliceSize, 0, failure.Policy{Scheme: failure.Replicate, Copies: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*SliceSize)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	if err := p.Write(0, b.Addr(), data); err != nil {
		t.Fatal(err)
	}
	owner, err := p.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Feed transient failures until the owner's breaker opens.
	for i := 0; i < 8; i++ {
		p.ReportAccess(owner, time.Millisecond, fmt.Errorf("injected: %w", rpc.ErrTransient))
	}
	if !p.breakerOpen(owner) {
		t.Fatalf("server %d breaker still %v after failure burst", owner, p.BreakerCounters(owner).State)
	}
	if c := p.BreakerCounters(owner); c.Trips == 0 {
		t.Fatalf("no trip recorded: %+v", c)
	}

	// Reads shed to the replica and still return committed bytes.
	got := make([]byte, 2*SliceSize)
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatalf("read with owner degraded: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("replica shed returned wrong bytes")
	}
	sheds := p.metrics.Counter("pool.reads.replica_shed").Value()
	if sheds == 0 {
		t.Fatal("no replica shed recorded for a degraded-owner read")
	}

	// Writes still go to the primary and propagate to replicas: a
	// subsequent (shed) read sees the new bytes.
	patch := []byte("written while owner degraded")
	if err := p.Write(1, b.Addr()+100, patch); err != nil {
		t.Fatalf("write with owner degraded: %v", err)
	}
	copy(data[100:], patch)
	if err := p.Read(2, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("shed read missed a write committed while the owner was degraded")
	}

	// With every server degraded there is no live copy left: protected
	// reads fail fast with ErrServerDegraded instead of blocking.
	for s := 0; s < 4; s++ {
		for i := 0; i < 8; i++ {
			p.ReportAccess(addr.ServerID(s), time.Millisecond, fmt.Errorf("injected: %w", rpc.ErrTransient))
		}
	}
	err = p.Read(1, b.Addr(), got)
	if !errors.Is(err, ErrServerDegraded) {
		t.Fatalf("all servers degraded: got %v, want ErrServerDegraded", err)
	}
	if fails := p.metrics.Counter("pool.reads.degraded_fail").Value(); fails == 0 {
		t.Fatal("degraded fail not counted")
	}

	// After OpenFor elapses the breaker half-opens and traffic recovers.
	clk.advance(2 * time.Hour)
	for i := 0; i < 8; i++ {
		for s := 0; s < 4; s++ {
			p.ReportAccess(addr.ServerID(s), time.Microsecond, nil)
		}
	}
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-recovery read returned wrong bytes")
	}
}

// TestTailDegradedUnprotectedRead pins the unprotected case: an open
// owner breaker with no replica to shed to fails the read fast with
// ErrServerDegraded, and writes are unaffected.
func TestTailDegradedUnprotectedRead(t *testing.T) {
	clk := &tailClock{}
	p := tailTestPoolFrom(t, Config{Tail: TailConfig{Breaker: tailBreakerPolicy()}, Clock: clk.now})
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(0, b.Addr(), []byte("unprotected")); err != nil {
		t.Fatal(err)
	}
	owner, err := p.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p.ReportAccess(owner, time.Millisecond, fmt.Errorf("injected: %w", rpc.ErrTransient))
	}
	err = p.Read(1, b.Addr(), make([]byte, 16))
	if !errors.Is(err, ErrServerDegraded) || !errors.Is(err, rpc.ErrServerDegraded) {
		t.Fatalf("unprotected degraded read: got %v, want ErrServerDegraded", err)
	}
	// The owner still accepts writes — degradation is slow, not dead.
	if err := p.Write(1, b.Addr()+64, []byte("still writable")); err != nil {
		t.Fatalf("write to degraded owner: %v", err)
	}
}

// tripBreaker feeds transient failures until server s's breaker opens
// (a window already full of successes takes more than MinSamples of them).
func tripBreaker(t *testing.T, p *Pool, s addr.ServerID) {
	t.Helper()
	for i := 0; i < 64 && !p.breakerOpen(s); i++ {
		p.ReportAccess(s, time.Millisecond, fmt.Errorf("injected: %w", rpc.ErrTransient))
	}
	if !p.breakerOpen(s) {
		t.Fatalf("server %d breaker still %v after failure burst", s, p.BreakerCounters(s).State)
	}
}

// tailReadPaths is every way a foreground read reaches backing bytes: the
// single-address and vectored entry points, at sizes that go through the
// page cache (when there is one) and sizes that bypass it. Each reads from
// server 1 into dst (sized by n) at offset off of the buffer at base;
// spanning rows also read 64 bytes of the healthy buffer at hAddr — which
// sorts first, so only a resolve pass that runs before any byte moves
// leaves its destination untouched when the second vector is refused.
var tailReadPaths = []struct {
	name string
	off  int64
	n    int
	read func(p *Pool, base, hAddr addr.Logical, off int64, dst, hdst []byte) error
}{
	{"Read64", 128, 64, func(p *Pool, base, _ addr.Logical, off int64, dst, _ []byte) error {
		return p.Read(1, base+addr.Logical(off), dst)
	}},
	{"ReadV64", 128, 64, func(p *Pool, base, _ addr.Logical, off int64, dst, _ []byte) error {
		return p.ReadV(1, []Vec{{Addr: base + addr.Logical(off), Data: dst}})
	}},
	{"Read1MiB", 4096, 1 << 20, func(p *Pool, base, _ addr.Logical, off int64, dst, _ []byte) error {
		return p.Read(1, base+addr.Logical(off), dst)
	}},
	{"ReadVTwoSlices", SliceSize - 512, 1024, func(p *Pool, base, hAddr addr.Logical, off int64, dst, hdst []byte) error {
		return p.ReadV(1, []Vec{{Addr: hAddr, Data: hdst}, {Addr: base + addr.Logical(off), Data: dst}})
	}},
}

// TestTailShedCoversEveryReadPath is reproducer (A): with the owner's
// breaker open, every foreground read path — not only the direct one —
// serves a replicated buffer from its live replica (committed bytes, a
// counted shed, an access the balancer sees) and fails an unprotected one
// fast with ErrServerDegraded, a vectored read without partial effects.
func TestTailShedCoversEveryReadPath(t *testing.T) {
	pools := []struct {
		name  string
		cache CacheConfig
	}{{"uncached", CacheConfig{}}, {"cached", CacheConfig{Enabled: true}}}
	for _, protected := range []bool{true, false} {
		for _, pc := range pools {
			for _, path := range tailReadPaths {
				name := fmt.Sprintf("replicated=%v/%s/%s", protected, pc.name, path.name)
				t.Run(name, func(t *testing.T) {
					clk := &tailClock{}
					p := tailTestPoolFrom(t, Config{Tail: TailConfig{Breaker: tailBreakerPolicy()}, Cache: pc.cache, Clock: clk.now})
					healthy, err := p.Alloc(SliceSize, 2)
					if err != nil {
						t.Fatal(err)
					}
					var prot failure.Policy
					if protected {
						prot = failure.Policy{Scheme: failure.Replicate, Copies: 2}
					}
					b, err := p.AllocProtected(2*SliceSize, 0, prot)
					if err != nil {
						t.Fatal(err)
					}
					data := make([]byte, 2*SliceSize)
					rand.New(rand.NewSource(7)).Read(data)
					if err := p.Write(0, b.Addr(), data); err != nil {
						t.Fatal(err)
					}
					hdata := bytes.Repeat([]byte{0x5a}, 64)
					if err := p.Write(2, healthy.Addr(), hdata); err != nil {
						t.Fatal(err)
					}
					s0 := addr.SliceOf(b.Addr())
					owner := p.lookupSlice(s0).server
					if o1 := p.lookupSlice(s0 + 1).server; o1 != owner || p.lookupSlice(addr.SliceOf(healthy.Addr())).server == owner {
						t.Fatalf("placement changed: slices on %d and %d, healthy buffer elsewhere expected", owner, o1)
					}
					tripBreaker(t, p, owner)

					first := p.lookupSlice(addr.SliceOf(b.Addr() + addr.Logical(path.off)))
					countsBefore := first.counts[1].Load()
					shedsBefore := p.metrics.Counter("pool.reads.replica_shed").Value()
					dst := bytes.Repeat([]byte{0xaa}, path.n)
					hdst := bytes.Repeat([]byte{0xaa}, 64)
					err = path.read(p, b.Addr(), healthy.Addr(), path.off, dst, hdst)

					if !protected {
						if !errors.Is(err, ErrServerDegraded) {
							t.Fatalf("unprotected read with owner degraded: got %v, want ErrServerDegraded", err)
						}
						if untouched := bytes.Repeat([]byte{0xaa}, 64); !bytes.Equal(hdst, untouched) || !bytes.Equal(dst[:64], untouched) {
							t.Fatal("refused read moved bytes into the caller's buffers")
						}
						if p.metrics.Counter("pool.reads.degraded_fail").Value() == 0 {
							t.Fatal("degraded fail not counted")
						}
						return
					}
					if err != nil {
						t.Fatalf("replicated read with owner degraded: %v", err)
					}
					if !bytes.Equal(dst, data[path.off:path.off+int64(path.n)]) {
						t.Fatal("shed read returned bytes other than the committed data")
					}
					if path.name == "ReadVTwoSlices" && !bytes.Equal(hdst, hdata) {
						t.Fatal("healthy vector of a shed ReadV returned wrong bytes")
					}
					if got := p.metrics.Counter("pool.reads.replica_shed").Value(); got == shedsBefore {
						t.Fatal("no replica shed recorded: the read went to the degraded owner")
					}
					if got := first.counts[1].Load(); got == countsBefore {
						t.Fatal("shed read invisible to the balancer: sliceBacking.counts did not move")
					}
				})
			}
		}
	}
}

// TestTailBreakerFedByEveryPath is reproducer (B): with SlowCallNS = 1 and
// a clock that advances on every reading, every backing I/O of a
// foreground op counts as slow, so a few ops against one owner must trip
// its breaker whichever path they take. A cache hit touches no node and
// feeds nothing.
func TestTailBreakerFedByEveryPath(t *testing.T) {
	cached := CacheConfig{Enabled: true}
	buf64 := make([]byte, 64)
	rows := []struct {
		name  string
		cache CacheConfig
		trips bool
		op    func(p *Pool, base addr.Logical, i int) error
	}{
		{"Read", CacheConfig{}, true, func(p *Pool, base addr.Logical, i int) error { return p.Read(1, base, buf64) }},
		{"Write", CacheConfig{}, true, func(p *Pool, base addr.Logical, i int) error { return p.Write(1, base, buf64) }},
		{"ReadV", CacheConfig{}, true, func(p *Pool, base addr.Logical, i int) error {
			return p.ReadV(1, []Vec{{Addr: base, Data: buf64}})
		}},
		{"WriteV", CacheConfig{}, true, func(p *Pool, base addr.Logical, i int) error {
			return p.WriteV(1, []Vec{{Addr: base, Data: buf64}})
		}},
		{"cached/ReadMiss", cached, true, func(p *Pool, base addr.Logical, i int) error {
			return p.Read(1, base+addr.Logical(i*4096), buf64) // a new page every time
		}},
		{"cached/FlushWriteCombining", cached, true, func(p *Pool, base addr.Logical, i int) error {
			if err := p.Write(1, base+addr.Logical(i*4096), buf64); err != nil { // buffered: no I/O yet
				return err
			}
			return p.FlushWriteCombining()
		}},
		{"cached/ReadHit", cached, false, func(p *Pool, base addr.Logical, i int) error { return p.Read(1, base, buf64) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var ticks atomic.Int64
			pol := tailBreakerPolicy()
			pol.SlowCallNS = 1
			p := tailTestPoolFrom(t, Config{Tail: TailConfig{Breaker: pol}, Cache: row.cache, Clock: func() int64 { return ticks.Add(1) }})
			b, err := p.Alloc(SliceSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			owner := p.lookupSlice(addr.SliceOf(b.Addr())).server
			for i := 0; i < 32 && p.BreakerCounters(owner).Trips == 0; i++ {
				if err := row.op(p, b.Addr(), i); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			c := p.BreakerCounters(owner)
			if row.trips && c.Trips == 0 {
				t.Fatalf("32 slow ops left the owner's breaker %v with 0 trips: the path does not feed it", c.State)
			}
			if !row.trips && (c.Trips != 0 || c.State != BreakerClosed) {
				t.Fatalf("cache hits fed the breaker: %+v", c)
			}
			if !row.trips && p.CacheStats().Hits < 31 {
				t.Fatalf("measured loop was not the hit path: %+v", p.CacheStats())
			}
		})
	}
}

// TestTailBudgetContract is reproducer (C), the documented contract: the
// default op budget is applied by the ...Ctx entry points, all four of
// them, and by none of the context-less ones.
func TestTailBudgetContract(t *testing.T) {
	p := tailTestPool(t, TailConfig{OpBudget: time.Nanosecond})
	b, err := p.Alloc(8*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8*SliceSize)
	vecs := []Vec{{Addr: b.Addr(), Data: buf}}
	bg := context.Background()
	plain := map[string]func() error{
		"Read":   func() error { return p.Read(1, b.Addr(), buf) },
		"Write":  func() error { return p.Write(1, b.Addr(), buf) },
		"ReadV":  func() error { return p.ReadV(1, vecs) },
		"WriteV": func() error { return p.WriteV(1, vecs) },
	}
	for name, op := range plain {
		for i := 0; i < 5; i++ {
			if err := op(); err != nil {
				t.Fatalf("context-less %s under a 1ns OpBudget: %v, want the budget ignored", name, err)
			}
		}
	}
	withCtx := map[string]func() error{
		"ReadCtx":   func() error { return p.ReadCtx(bg, 1, b.Addr(), buf) },
		"WriteCtx":  func() error { return p.WriteCtx(bg, 1, b.Addr(), buf) },
		"ReadVCtx":  func() error { return p.ReadVCtx(bg, 1, vecs) },
		"WriteVCtx": func() error { return p.WriteVCtx(bg, 1, vecs) },
	}
	for name, op := range withCtx {
		// Bounded retries absorb the (unlikely) schedule where a whole
		// 16 MiB op beats a 1ns timer, as in TestTailBudgetExpiresMidOp.
		var err error
		for i := 0; i < 100 && err == nil; i++ {
			err = op()
		}
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("%s under a 1ns OpBudget: got %v, want ErrDeadlineExceeded", name, err)
		}
	}
}

// TestTailAllocFree extends the zero-alloc contract to the armed tail
// path: with admission control and breakers on (budget off), the
// unhedged fast path must not allocate per op.
func TestTailAllocFree(t *testing.T) {
	clk := &tailClock{}
	p, err := New(Config{
		Servers: []ServerConfig{
			{Name: "a", Capacity: 64 << 20, SharedBytes: 32 << 20},
			{Name: "b", Capacity: 64 << 20, SharedBytes: 32 << 20},
		},
		Tail: TailConfig{
			AdmissionLimit: 64,
			Breaker:        tailBreakerPolicy(),
		},
		Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n := testing.AllocsPerRun(200, func() {
		if err := p.Read(1, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("tail-armed read allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.Write(1, b.Addr()+4096, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("tail-armed write allocates %.1f per op, want 0", n)
	}
	if got := p.Inflight(); got != 0 {
		t.Fatalf("Inflight after runs = %d, want 0", got)
	}

	// The feed reaches the vectored path through pooled scratch and the
	// cache fill through the shared locked body: neither may allocate.
	vecs := []Vec{{Addr: b.Addr(), Data: make([]byte, 64)}, {Addr: b.Addr() + 8192, Data: make([]byte, 64)}}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.ReadV(1, vecs); err != nil {
			t.Fatal(err)
		}
	}); !vecAllocsOK(n) {
		t.Errorf("tail-armed vectored read allocates %.1f per op, want 0", n)
	}
	cp, err := New(Config{
		Servers: []ServerConfig{
			{Name: "a", Capacity: 64 << 20, SharedBytes: 32 << 20},
			{Name: "b", Capacity: 64 << 20, SharedBytes: 32 << 20},
		},
		Cache: CacheConfig{Enabled: true, CapacityBytes: 16 * 4096},
		Tail:  TailConfig{AdmissionLimit: 64, Breaker: tailBreakerPolicy()},
		Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cp.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A 512-page walk through a 16-page cache: every read is a miss. Two
	// warm-up laps bring the cache, ghost list and directory to their
	// high-water marks.
	page := 0
	miss := func() {
		if err := cp.Read(1, cb.Addr()+addr.Logical(page%512*4096), buf); err != nil {
			t.Fatal(err)
		}
		page++
	}
	for page < 1024 {
		miss()
	}
	fills := cp.CacheStats().Fills
	// Under the race detector sync.Pool drops a quarter of its Puts, so the
	// page scratch behind a fill is re-made that often.
	if n := testing.AllocsPerRun(200, miss); n != 0 && !(raceDetectorEnabled && n <= 1) {
		t.Errorf("tail-armed cached miss allocates %.1f per op, want 0", n)
	}
	if got := cp.CacheStats().Fills - fills; got < 200 {
		t.Fatalf("measured loop was not the miss path: %d fills", got)
	}
	if c := cp.BreakerCounters(0); c.State != BreakerClosed {
		t.Fatalf("fills on a frozen clock tripped the owner: %+v", c)
	}
}

// --- Elasticity under load -------------------------------------------

// elasticWorker owns one buffer and a shadow model of its bytes; its op
// stream is derived from the seed alone so every worker's behaviour is
// reproducible even though the cross-worker interleaving is not — the
// assertions (own reads match own shadow) are interleaving-independent.
type elasticWorker struct {
	id     int
	buf    *Buffer
	shadow []byte
	rng    *rand.Rand
}

func (w *elasticWorker) run(t *testing.T, p *Pool, ops int) {
	from := addr.ServerID(w.id % 4)
	size := len(w.shadow)
	for i := 0; i < ops; i++ {
		switch r := w.rng.Intn(100); {
		case r < 40: // write a random range, mirror into the shadow
			off := w.rng.Intn(size)
			n := w.rng.Intn(size-off) + 1
			if n > 64<<10 {
				n = 64 << 10
			}
			data := make([]byte, n)
			w.rng.Read(data)
			if err := p.Write(from, w.buf.Addr()+addr.Logical(off), data); err != nil {
				t.Errorf("worker %d op %d: write: %v", w.id, i, err)
				return
			}
			copy(w.shadow[off:], data)
		case r < 80: // read a random range, must match the shadow
			off := w.rng.Intn(size)
			n := w.rng.Intn(size-off) + 1
			if n > 64<<10 {
				n = 64 << 10
			}
			got := make([]byte, n)
			if err := p.Read(from, w.buf.Addr()+addr.Logical(off), got); err != nil {
				t.Errorf("worker %d op %d: read: %v", w.id, i, err)
				return
			}
			if !bytes.Equal(got, w.shadow[off:off+n]) {
				t.Errorf("worker %d op %d: read mismatch at offset %d len %d", w.id, i, off, n)
				return
			}
		case r < 90: // vectored round trip across both slices
			a := make([]byte, 128)
			b := make([]byte, 128)
			w.rng.Read(a)
			w.rng.Read(b)
			off2 := size - 256
			vecs := []Vec{
				{Addr: w.buf.Addr(), Data: a},
				{Addr: w.buf.Addr() + addr.Logical(off2), Data: b},
			}
			if err := p.WriteV(from, vecs); err != nil {
				t.Errorf("worker %d op %d: writev: %v", w.id, i, err)
				return
			}
			copy(w.shadow[0:], a)
			copy(w.shadow[off2:], b)
		default: // migrate one of our slices to a random server
			s := addr.SliceOf(w.buf.Addr()) + uint64(w.rng.Intn(size/int(SliceSize)))
			// Target may be full or mid-resize; failure is allowed, data
			// loss is not (the next reads verify).
			_ = p.MigrateSlice(s, addr.ServerID(w.rng.Intn(4)))
		}
	}
}

// elasticityVariant is one pool shape the elasticity scenario runs on.
type elasticityVariant struct {
	name  string
	cache CacheConfig
	// tight packs eight filler slices at the bottom of every server and
	// protects three of the four worker buffers, so a shrink to the
	// filler line finds no local slot: primaries, replica blocks and
	// parity rows in the tail all have to leave the server.
	tight bool
}

// The default shape keeps every worker block at the bottom of its
// server, so its shrinks succeed without a compaction pass (measured: 0
// passes in thousands of rounds) — it churns SizeOnce/ResizeShared. The
// tight shapes are the ones that compact, hence the cached one is tight.
var elasticityVariants = []elasticityVariant{
	{name: "default"},
	{name: "tight", tight: true},
	{name: "tight-cached", tight: true, cache: CacheConfig{Enabled: true}},
}

// runElasticityChaos races seeded read/write/migrate workers against
// continuous SizeOnce/ShrinkShared churn, then checks every worker's
// shadow still matches and the pool invariants hold. It reports how many
// blocks the churn's own compaction passes evacuated to other servers.
func runElasticityChaos(t *testing.T, seed int64, v elasticityVariant) (relocatedRemote int) {
	t.Helper()
	const workers = 4
	const opsPerWorker = 150
	cfg := Config{Placement: alloc.LocalityAware, Tail: TailConfig{AdmissionLimit: 64}, Cache: v.cache}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{Name: "srv", Capacity: 16 * SliceSize, SharedBytes: 16 * SliceSize})
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prots := make([]failure.Policy, workers)
	if v.tight {
		for i := 0; i < 4; i++ {
			if _, err := p.Alloc(8*SliceSize, addr.ServerID(i)); err != nil {
				t.Fatal(err)
			}
		}
		prots[1] = failure.Policy{Scheme: failure.Replicate, Copies: 2}
		prots[2] = failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}
		prots[3] = failure.Policy{Scheme: failure.Replicate, Copies: 2}
	}

	ws := make([]*elasticWorker, workers)
	for i := range ws {
		b, err := p.AllocProtected(2*SliceSize, addr.ServerID(i), prots[i])
		if err != nil {
			t.Fatal(err)
		}
		w := &elasticWorker{
			id:     i,
			buf:    b,
			shadow: make([]byte, 2*SliceSize),
			rng:    rand.New(rand.NewSource(seed*31 + int64(i))),
		}
		w.rng.Read(w.shadow)
		if err := p.Write(addr.ServerID(i), b.Addr(), w.shadow); err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}

	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *elasticWorker) {
			defer wg.Done()
			w.run(t, p, opsPerWorker)
		}(w)
	}

	// Sizing churn on this goroutine until the workers drain: SizeOnce
	// repeatedly reshapes every server's shared region (grow-then-shrink
	// with compaction) while foreground traffic is live. Individual
	// shrinks may be blocked by fragmentation — SizeOnce absorbs that —
	// but the optimizer run itself must never fail on feasible loads.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	churn := rand.New(rand.NewSource(seed * 131))
	loads := make([]ServerLoad, 4)
	rounds := 0
	for {
		select {
		case <-done:
		default:
		}
		select {
		case <-done:
			goto drained
		default:
		}
		for i := range loads {
			loads[i] = ServerLoad{
				Capacity:     16 * SliceSize,
				SharedDemand: int64(8+churn.Intn(9)) * SliceSize,
				SharedWeight: 1,
			}
		}
		if _, err := p.SizeOnce(loads, 16*SliceSize); err != nil {
			t.Errorf("round %d: SizeOnce: %v", rounds, err)
			goto drained
		}
		// Direct shrink pressure on one server — ShrinkShared spelled out,
		// for the pass's report; fragmentation, a full pool or an
		// allocation racing into the cleared tail may refuse.
		srv, target := addr.ServerID(churn.Intn(4)), int64(8+churn.Intn(9))*SliceSize
		if p.ResizeShared(srv, target) != nil {
			rep, err := p.CompactServer(srv, target)
			relocatedRemote += rep.RelocatedRemote
			if err == nil {
				_ = p.ResizeShared(srv, target)
			}
		}
		rounds++
	}
drained:
	<-done
	if t.Failed() {
		t.Fatalf("seed %d failed (churn rounds: %d)", seed, rounds)
	}

	// Post-churn: every shadow intact, invariants hold, and one final
	// grow round restores headroom so the check isn't capacity-limited.
	for _, w := range ws {
		got := make([]byte, len(w.shadow))
		if err := p.Read(addr.ServerID(w.id), w.buf.Addr(), got); err != nil {
			t.Fatalf("seed %d: final read worker %d: %v", seed, w.id, err)
		}
		if !bytes.Equal(got, w.shadow) {
			t.Fatalf("seed %d: worker %d data diverged from shadow after churn", seed, w.id)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: invariants after churn: %v", seed, err)
	}
	checkResidentWithinUse(t, p)
	if rounds == 0 {
		t.Logf("seed %d: workers drained before any churn round", seed)
	}
	return relocatedRemote
}

// TestChaosElasticityUnderLoad sweeps the seeded elasticity scenario
// (CHAOS_SEED pins one seed, CHAOS_SEEDS widens; runs under -race in
// make chaos) over every pool shape: shared-region resizing and
// compaction must never corrupt, lose, or misroute foreground traffic,
// nor leak an extent.
func TestChaosElasticityUnderLoad(t *testing.T) {
	seeds := chaosSeeds(t)
	tightRemote := 0
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, v := range elasticityVariants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					tightRemote += runElasticityChaos(t, seed, v)
				})
			}
		})
	}
	// How many passes a seed fits in is timing; one pinned seed may see
	// none, a sweep that sees none is not exercising evacuation.
	if len(seeds) > 1 && tightRemote == 0 {
		t.Error("tight pool: no compaction pass evacuated a block to another server across the sweep")
	}
}

// breakerEvent is one step of a breaker state-machine script: advance
// the clock, record one outcome, then expect a state.
type breakerEvent struct {
	advance time.Duration
	fail    bool
	record  bool
	state   BreakerState
}

func TestBreakerStateMachine(t *testing.T) {
	pol := BreakerPolicy{
		Window:         8,
		MinSamples:     4,
		FailureRatio:   0.5,
		OpenFor:        time.Millisecond,
		HalfOpenProbes: 2,
	}
	fail := func(st BreakerState) breakerEvent { return breakerEvent{fail: true, record: true, state: st} }
	ok := func(st BreakerState) breakerEvent { return breakerEvent{record: true, state: st} }
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
			{advance: time.Millisecond / 2, state: BreakerOpen}, // inside the cool-down
			{advance: time.Millisecond, state: BreakerHalfOpen}, // cool-down over
			ok(BreakerHalfOpen), ok(BreakerClosed), // HalfOpenProbes successes close
		}},
		{"half-open probe failure reopens", []breakerEvent{
			fail(BreakerClosed), fail(BreakerClosed), fail(BreakerClosed), fail(BreakerOpen),
			{advance: 2 * time.Millisecond, state: BreakerHalfOpen},
			ok(BreakerHalfOpen), fail(BreakerOpen),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &tailClock{}
			b := newBreaker(pol, clk.now)
			for i, ev := range tc.script {
				clk.advance(ev.advance)
				if ev.record {
					var err error
					if ev.fail {
						err = fmt.Errorf("boom: %w", rpc.ErrTransient)
					}
					b.RecordLatency(0, err)
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
		{fmt.Errorf("t: %w", rpc.ErrTransient), true},
		{fmt.Errorf("d: %w", ErrDeadlineExceeded), true},
		{fmt.Errorf("o: %w", ErrOverloaded), true},
		{fmt.Errorf("dead: %w", rpc.ErrServerDead), false}, // repair's jurisdiction
		{errors.New("handler said no"), false},             // application error
	}
	for _, tc := range cases {
		if got := breakerFailure(tc.err); got != tc.fail {
			t.Fatalf("breakerFailure(%v) = %v, want %v", tc.err, got, tc.fail)
		}
	}
}

func TestBreakerSlowCallsTrip(t *testing.T) {
	clk := &tailClock{}
	pol := BreakerPolicy{MinSamples: 4, FailureRatio: 0.5, SlowCallNS: 1000, OpenFor: time.Millisecond}
	b := newBreaker(pol, clk.now)
	for i := 0; i < 4; i++ {
		b.RecordLatency(5000, nil) // successful but slow
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after 4 slow successes = %v, want open", st)
	}
	// Fast successes never count against the breaker.
	b2 := newBreaker(pol, clk.now)
	for i := 0; i < 100; i++ {
		b2.RecordLatency(10, nil)
	}
	if st := b2.State(); st != BreakerClosed {
		t.Fatalf("state after fast successes = %v, want closed", st)
	}
}

// TestBreakerStaleOutcomeWhileOpen pins that an outcome recorded while
// the breaker is open — an access that started before the trip — moves
// nothing: the breaker stays open and, once the cool-down passes, needs
// its full HalfOpenProbes run of successes to close.
func TestBreakerStaleOutcomeWhileOpen(t *testing.T) {
	clk := &tailClock{}
	pol := BreakerPolicy{MinSamples: 2, FailureRatio: 0.5, OpenFor: time.Millisecond, HalfOpenProbes: 2}
	b := newBreaker(pol, clk.now)
	b.RecordLatency(0, fmt.Errorf("x: %w", rpc.ErrTransient))
	b.RecordLatency(0, fmt.Errorf("x: %w", rpc.ErrTransient))
	b.RecordLatency(0, nil) // stale success against the open breaker
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("stale outcome moved an open breaker to %v", st)
	}
	clk.advance(2 * time.Millisecond)
	if st := b.State(); st != BreakerHalfOpen { // the read path polls before its I/O
		t.Fatalf("after the cool-down: %v, want half-open", st)
	}
	b.RecordLatency(0, nil)
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("one success closed a breaker that needs two: %v", st)
	}
	b.RecordLatency(0, nil)
	if c := b.Counters(); c != (BreakerCounters{State: BreakerClosed, Trips: 1}) {
		t.Fatalf("counters = %+v, want closed after one trip", c)
	}
}

// TestBreakerCountersAfterCoolDown reads a tripped breaker through
// Pool.BreakerCounters once OpenFor has passed on the sim clock: the
// read path already routes to the owner as half-open, so the snapshot
// must say half-open too, not the open state the breaker last stored.
func TestBreakerCountersAfterCoolDown(t *testing.T) {
	clk := &tailClock{}
	pol := tailBreakerPolicy()
	pol.OpenFor = time.Millisecond
	p := tailTestPoolFrom(t, Config{Tail: TailConfig{Breaker: pol}, Clock: clk.now})
	for i := 0; i < pol.MinSamples; i++ {
		p.ReportAccess(2, time.Millisecond, fmt.Errorf("injected: %w", rpc.ErrTransient))
	}
	if c := p.BreakerCounters(2); c.State != BreakerOpen || c.Trips != 1 {
		t.Fatalf("after the failure burst: %+v, want open with one trip", c)
	}
	clk.advance(2 * time.Millisecond)
	if c := p.BreakerCounters(2); c.State != BreakerHalfOpen {
		t.Fatalf("after the cool-down BreakerCounters says %v, want half-open", c.State)
	}
	if p.breakerOpen(2) {
		t.Fatal("read path still treats the breaker as open after the cool-down")
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
