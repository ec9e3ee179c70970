package core

import (
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/alloc"
)

func TestStartBackgroundValidation(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	if _, err := p.StartBackground(RunnerConfig{}); err == nil {
		t.Fatal("no-task runner accepted")
	}
	if _, err := p.StartBackground(RunnerConfig{SizeEvery: time.Millisecond}); err == nil {
		t.Fatal("sizing without loads accepted")
	}
}

func TestBackgroundBalancerMigratesHotData(t *testing.T) {
	cfg := Config{Placement: alloc.LocalityAware}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: 16 * SliceSize, SharedBytes: 16 * SliceSize})
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.migration = migrationPolicy{minAccesses: 8, hysteresis: 1.5, maxMoves: 16}
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	rounds := make(chan struct{}, 64)
	r, err := p.StartBackground(RunnerConfig{
		BalanceEvery: time.Millisecond,
		OnRound: func() {
			select {
			case rounds <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// Drive reads from server 2, then wait for each balance round to
	// complete (signalled on the channel — no wall-clock polling) and
	// check whether the slice has moved. The round bound replaces a
	// deadline: well under 100 rounds suffice in practice.
	buf := make([]byte, 64)
	for round := 0; round < 5000; round++ {
		for i := 0; i < 20; i++ {
			if err := p.Read(2, b.Addr(), buf); err != nil {
				t.Fatal(err)
			}
		}
		<-rounds
		owner, err := p.OwnerOf(b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if owner == 2 {
			balances, _ := r.Rounds()
			if balances == 0 {
				t.Fatal("migration happened without a balance round?")
			}
			return
		}
	}
	t.Fatal("background balancer never migrated the hot slice")
}

func TestBackgroundSizerApplies(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	loads := func() ([]ServerLoad, int64) {
		ls := make([]ServerLoad, 4)
		for i := range ls {
			ls[i] = ServerLoad{Capacity: 16 * SliceSize}
		}
		ls[0].SharedDemand = 4 * SliceSize
		ls[0].SharedWeight = 1
		return ls, 0
	}
	rounds := make(chan struct{}, 64)
	r, err := p.StartBackground(RunnerConfig{
		SizeEvery: time.Millisecond,
		Loads:     loads,
		OnRound: func() {
			select {
			case rounds <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	// The first completed round should already apply the target split;
	// allow a few in case an early tick raced the start.
	for round := 0; round < 100; round++ {
		<-rounds
		if p.SharedBytes(1) == 0 && p.SharedBytes(0) == 4*SliceSize {
			return
		}
	}
	t.Fatalf("sizer never applied: shared = %d/%d", p.SharedBytes(0), p.SharedBytes(1))
}

func TestRunnerStopIdempotent(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	r, err := p.StartBackground(RunnerConfig{BalanceEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.Stop()
	r.Stop() // must not panic or hang
}

func TestRunnerErrorCallback(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	errs := make(chan error, 16)
	rounds := make(chan struct{}, 16)
	r, err := p.StartBackground(RunnerConfig{
		SizeEvery: time.Millisecond,
		// Infeasible requirement triggers errors every round.
		Loads: func() ([]ServerLoad, int64) {
			ls := make([]ServerLoad, 4)
			for i := range ls {
				ls[i] = ServerLoad{Capacity: 16 * SliceSize}
			}
			return ls, 1 << 62
		},
		OnError: func(e error) {
			select {
			case errs <- e:
			default:
			}
		},
		OnRound: func() {
			select {
			case rounds <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	// OnError runs before OnRound on the same goroutine, so once a round
	// has completed its error must already be queued.
	<-rounds
	select {
	case <-errs:
	default:
		t.Fatal("round completed without reporting an error")
	}
}
