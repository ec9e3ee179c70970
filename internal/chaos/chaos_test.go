package chaos

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"github.com/lmp-project/lmp/internal/rpc"
	"github.com/lmp-project/lmp/internal/sim"
)

// echoCaller is a healthy transport that records how many calls reached
// the server.
type echoCaller struct{ calls int }

func (e *echoCaller) Call(method byte, payload []byte) ([]byte, error) {
	return e.CallCtx(nil, method, payload)
}

func (e *echoCaller) CallCtx(_ context.Context, method byte, payload []byte) ([]byte, error) {
	e.calls++
	return payload, nil
}

func runSeed(t *testing.T, seed int64) string {
	t.Helper()
	eng := sim.NewEngine()
	in := New(eng, Config{
		Seed:        seed,
		PDrop:       0.2,
		PDelay:      0.3,
		PDup:        0.1,
		MaxDelay:    2 * sim.Millisecond,
		CallTimeout: sim.Millisecond,
	})
	link := in.WrapTransport(1, &echoCaller{})
	in.CrashAt(5*sim.Time(sim.Millisecond), 1)
	in.RestoreAt(9*sim.Time(sim.Millisecond), 1)
	in.DegradeLinkAt(2*sim.Time(sim.Millisecond), 1, 4)
	for i := 0; i < 40; i++ {
		at := sim.Time(sim.Duration(i) * 300 * sim.Microsecond)
		eng.At(at, func() { _, _ = link.Call(byte(i%4), []byte("x")) })
	}
	eng.Run()
	return in.TraceString()
}

func TestSameSeedSameTrace(t *testing.T) {
	for _, seed := range []int64{1, 7, 424242} {
		a := runSeed(t, seed)
		b := runSeed(t, seed)
		if a != b {
			t.Fatalf("seed %d: traces diverge:\n--- run 1\n%s--- run 2\n%s", seed, a, b)
		}
		if a == "" {
			t.Fatalf("seed %d: empty trace (no faults injected)", seed)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	if runSeed(t, 1) == runSeed(t, 2) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestCrashWindowSemantics(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 3})
	e := &echoCaller{}
	link := in.WrapTransport(0, e)

	var crashes, restores int
	in.OnCrash = func(int) { crashes++ }
	in.OnRestore = func(int) { restores++ }
	in.CrashAt(10, 0)
	in.RestoreAt(20, 0)

	var errAt15 error
	eng.At(5, func() { _, _ = link.Call(1, nil) })
	eng.At(15, func() { _, errAt15 = link.Call(1, nil) })
	eng.At(25, func() { _, _ = link.Call(1, nil) })
	eng.Run()

	if crashes != 1 || restores != 1 {
		t.Fatalf("crashes=%d restores=%d, want 1/1", crashes, restores)
	}
	if !errors.Is(errAt15, rpc.ErrServerDead) {
		t.Fatalf("call during crash window: %v", errAt15)
	}
	if e.calls != 2 {
		t.Fatalf("server saw %d calls, want 2 (before crash, after restore)", e.calls)
	}
	if in.Crashed(0) {
		t.Fatal("server still crashed after restore")
	}
}

func TestCancelledRestoreStaysDown(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 3})
	in.CrashAt(10, 0)
	restore := in.RestoreAt(20, 0)
	// A second crash inside the window cancels the pending restore — the
	// windowed-fault shape sim.Schedule exists for.
	eng.At(15, func() { restore.Cancel() })
	eng.Run()
	if !in.Crashed(0) {
		t.Fatal("cancelled restore still revived the server")
	}
	for _, ev := range in.Trace() {
		if ev.Kind == FaultRestore {
			t.Fatal("trace records a restore that was cancelled")
		}
	}
}

func TestDegradedLinkTurnsDelaysIntoTimeouts(t *testing.T) {
	mk := func(factor float64) (timeouts, delays int) {
		eng := sim.NewEngine()
		in := New(eng, Config{
			Seed:        11,
			PDelay:      1, // every call delayed
			MaxDelay:    sim.Millisecond,
			CallTimeout: sim.Millisecond, // healthy delays never exceed it
		})
		if factor > 1 {
			in.DegradeLinkAt(0, 0, factor)
		}
		link := in.WrapTransport(0, &echoCaller{})
		for i := 0; i < 50; i++ {
			eng.At(sim.Time(i+1), func() { _, _ = link.Call(1, nil) })
		}
		eng.Run()
		for _, ev := range in.Trace() {
			switch ev.Kind {
			case FaultTimeout:
				timeouts++
			case FaultDelay:
				delays++
			}
		}
		return
	}
	timeouts, delays := mk(1)
	if timeouts != 0 || delays != 50 {
		t.Fatalf("healthy link: %d timeouts %d delays, want 0/50", timeouts, delays)
	}
	timeouts, _ = mk(8)
	if timeouts == 0 {
		t.Fatal("8x degraded link produced no timeouts")
	}
}

// TestTransientErrorsMatchInjectedFaults pins the link's contract with
// no retry above it: every call that fails with rpc.ErrTransient owns
// exactly one drop or timeout record in the fault trace, every other call
// owns none, and only the calls that succeeded (plus one extra delivery
// per dup) reached the server.
func TestTransientErrorsMatchInjectedFaults(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{
		Seed:        5,
		PDrop:       0.2,
		PDelay:      0.3,
		PDup:        0.1,
		MaxDelay:    2 * sim.Millisecond,
		CallTimeout: sim.Millisecond,
	})
	e := &echoCaller{}
	link := in.WrapTransport(0, e)
	var transients, oks int
	for i := 0; i < 200; i++ {
		eng.At(sim.Time(i+1), func() {
			before := len(in.Trace())
			_, err := link.Call(1, []byte("p"))
			lost := 0
			for _, ev := range in.Trace()[before:] {
				if ev.Kind == FaultDrop || ev.Kind == FaultTimeout {
					lost++
				}
			}
			switch {
			case err == nil:
				oks++
			case errors.Is(err, rpc.ErrTransient):
				transients++
			default:
				t.Errorf("call %d: unexpected error %v", i, err)
			}
			want := 0
			if errors.Is(err, rpc.ErrTransient) {
				want = 1
			}
			if lost != want {
				t.Errorf("call %d: error %v with %d drop/timeout records, want %d", i, err, lost, want)
			}
		})
	}
	eng.Run()
	dups := 0
	for _, ev := range in.Trace() {
		if ev.Kind == FaultDup {
			dups++
		}
	}
	if transients == 0 || dups == 0 {
		t.Fatalf("seed drew %d transient failures and %d dups; want both", transients, dups)
	}
	if e.calls != oks+dups {
		t.Fatalf("server saw %d deliveries, want %d successes + %d dups", e.calls, oks, dups)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 9, PDup: 1})
	e := &echoCaller{}
	link := in.WrapTransport(0, e)
	eng.At(1, func() { _, _ = link.Call(1, nil) })
	eng.Run()
	if e.calls != 2 {
		t.Fatalf("server saw %d deliveries, want 2", e.calls)
	}
}

func TestShrinkFindsMinimalSubset(t *testing.T) {
	// Failure requires ops 3 AND 17 together.
	fails := func(keep []int) bool {
		has3, has17 := false, false
		for _, i := range keep {
			has3 = has3 || i == 3
			has17 = has17 || i == 17
		}
		return has3 && has17
	}
	got := Shrink(40, fails)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 3 || got[1] != 17 {
		t.Fatalf("shrunk to %v, want [3 17]", got)
	}
	if Shrink(10, func([]int) bool { return false }) != nil {
		t.Fatal("non-failing sequence shrunk to non-nil")
	}
}

func TestReplayCommand(t *testing.T) {
	cmd := ReplayCommand(424242, "TestChaosPool", "./internal/core/")
	for _, want := range []string{"CHAOS_SEED=424242", "TestChaosPool", "./internal/core/"} {
		if !strings.Contains(cmd, want) {
			t.Fatalf("replay command %q missing %q", cmd, want)
		}
	}
}

// queueingCaller stands for a transport whose send queue can outlive a
// call: it keeps the payload slice of every delivery it was handed, and
// the second delivery — the duplicate — comes back abandoned, the way a
// call whose context is cancelled returns while its frame is still
// queued.
type queueingCaller struct{ held [][]byte }

func (q *queueingCaller) Call(method byte, payload []byte) ([]byte, error) {
	return q.CallCtx(nil, method, payload)
}

func (q *queueingCaller) CallCtx(_ context.Context, _ byte, payload []byte) ([]byte, error) {
	q.held = append(q.held, payload)
	if len(q.held)%2 == 0 {
		return nil, context.Canceled
	}
	return nil, nil
}

// TestDupSendsItsOwnCopy: a duplicated call reports the first delivery's
// success, upon which the caller recycles its request buffer (rpc's
// buffer rule 4) — while the second delivery, abandoned by a cancelled
// context, may still be queued. The duplicate must therefore travel in a
// copy: the queued bytes stay what was sent when the caller's buffer is
// put back and refilled. Both the blocking and the pipelined path.
func TestDupSendsItsOwnCopy(t *testing.T) {
	for _, async := range []bool{false, true} {
		in := New(sim.NewEngine(), Config{Seed: 9, PDup: 1})
		q := &queueingCaller{}
		link := in.WrapTransport(0, q)
		ctx, cancel := context.WithCancel(context.Background())

		req := rpc.GetBuffer(64)
		copy(req, "the block this call wrote")
		want := append([]byte(nil), req...)
		var err error
		if async {
			_, err = link.CallAsyncCtx(ctx, 1, req).WaitCtx(ctx)
		} else {
			_, err = link.CallCtx(ctx, 1, req)
		}
		cancel()
		if err != nil || len(q.held) != 2 {
			t.Fatalf("async=%t: err %v after %d deliveries, want success after 2", async, err, len(q.held))
		}
		// The call succeeded: the caller gives its buffer back, and the
		// next request is assembled in the same memory.
		rpc.PutBuffer(req)
		next := rpc.GetBuffer(64)
		copy(next, "another call's bytes, same buffer")
		if !bytes.Equal(q.held[1], want) {
			t.Errorf("async=%t: the queued duplicate now reads %q, want %q", async, q.held[1], want)
		}
		rpc.PutBuffer(next)
	}
}
