package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
)

// planPool is a four-server pool whose first `slices` slices are one
// buffer owned by server 0 — slice indices 0..slices-1 in a fresh pool.
func planPool(t *testing.T, slices int) *Pool {
	t.Helper()
	p := testPool(t, alloc.LocalityAware)
	if slices > 0 {
		if _, err := p.Alloc(int64(slices)*SliceSize, 0); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// seed adds n accesses of slice s by server from to the slice's profile,
// as n data-path accesses would.
func seed(t *testing.T, p *Pool, s uint64, from addr.ServerID, n uint64) {
	t.Helper()
	back := p.lookupSlice(s)
	if back == nil {
		t.Fatalf("slice %d has no entry to seed", s)
	}
	back.counts[from].Add(n)
}

func TestPlanMovesHotRemoteSlice(t *testing.T) {
	p := planPool(t, 4)
	// Slice 2 is hammered by server 1, barely touched by its owner 0.
	seed(t, p, 2, 1, 100)
	seed(t, p, 2, 0, 5)
	moves := p.planMoves()
	if len(moves) != 1 {
		t.Fatalf("moves = %+v, want 1", moves)
	}
	if mv := moves[0]; mv != (plannedMove{slice: 2, back: p.lookupSlice(2), from: 0, to: 1, gain: 95}) {
		t.Fatalf("move = %+v", mv)
	}
}

// TestPlanFollowsTheTable pins where the planner reads ownership: a
// slice that migrated is planned from its new owner, with no second map
// to fall out of step.
func TestPlanFollowsTheTable(t *testing.T) {
	p := planPool(t, 2)
	if err := p.MigrateSlice(1, 2); err != nil {
		t.Fatal(err)
	}
	seed(t, p, 1, 2, 100) // local to the new owner: nothing to do
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("locally-dominant slice planned to move: %+v", moves)
	}
	seed(t, p, 1, 3, 1000)
	moves := p.planMoves()
	if len(moves) != 1 || moves[0].from != 2 || moves[0].to != 3 {
		t.Fatalf("moves = %+v, want slice 1 from 2 to 3", moves)
	}
}

func TestPlanHysteresisKeepsMarginalSlices(t *testing.T) {
	p := planPool(t, 2)
	// Challenger leads but not by the 2x hysteresis factor.
	seed(t, p, 0, 1, 30)
	seed(t, p, 0, 0, 20)
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("marginal slice moved: %+v", moves)
	}
}

func TestPlanColdSlicesStayPut(t *testing.T) {
	p := planPool(t, 2)
	seed(t, p, 1, 1, 5) // below MinAccesses=16
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("cold slice moved: %+v", moves)
	}
}

func TestPlanLocalDominantNoMove(t *testing.T) {
	p := planPool(t, 2)
	seed(t, p, 0, 0, 100)
	seed(t, p, 0, 1, 10)
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("locally-dominant slice moved: %+v", moves)
	}
}

// TestPlanOrdersByGainAndCapsMoves: the planner ranks every justified
// move by gain; the round's budget, enforced by the balancer, takes the
// top of the list.
func TestPlanOrdersByGainAndCapsMoves(t *testing.T) {
	p := planPool(t, 8)
	p.migration.maxMoves = 3
	for s := uint64(0); s < 8; s++ {
		seed(t, p, s, 1, 50+10*s)
	}
	moves := p.planMoves()
	if len(moves) != 8 || moves[0].slice != 7 || moves[1].slice != 6 || moves[2].slice != 5 {
		t.Fatalf("not ordered by gain: %+v", moves)
	}
	rep, err := p.BalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planned != 8 || rep.Migrated != 3 {
		t.Fatalf("report = %+v, want 8 planned, capped 3 migrated", rep)
	}
	for s := uint64(0); s < 8; s++ {
		want := addr.ServerID(0)
		if s >= 5 {
			want = 1
		}
		if home, _ := p.homeOf(s); home.Server != want {
			t.Errorf("slice %d on server %d, want %d", s, home.Server, want)
		}
	}
}

func TestPlanSkipsUnmappedSlices(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, p, 0, 1, 1000)
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("unmapped slice moved: %+v", moves)
	}
}

func TestPlanDeterministicTieBreak(t *testing.T) {
	p := planPool(t, 1)
	// Servers 1 and 2 tie; lower id must win deterministically.
	seed(t, p, 0, 1, 50)
	seed(t, p, 0, 2, 50)
	for i := 0; i < 5; i++ {
		moves := p.planMoves()
		if len(moves) != 1 || moves[0].to != 1 {
			t.Fatalf("tie break: %+v", moves)
		}
	}
}

// TestProfileDiesWithTheSlice: logical slice numbers are reused, so an
// access profile kept anywhere but in the slice's own entry outlives the
// buffer it described and migrates the next tenant of the address away
// from its only user.
func TestProfileDiesWithTheSlice(t *testing.T) {
	for _, tc := range []struct {
		name string
		// pool builds the deployment and names the server that allocates
		// (and ends up backing tenant B) and another, the only reader of
		// tenant A.
		pool func(t *testing.T) (p *Pool, owner, reader addr.ServerID)
	}{
		{"uncached", func(t *testing.T) (*Pool, addr.ServerID, addr.ServerID) {
			return testPool(t, alloc.LocalityAware), 0, 1
		}},
		// One page read over and over: a single fill reaches the backing,
		// every other access is a cache hit the profile learns of only
		// through DrainHits.
		{"cache hits", func(t *testing.T) (*Pool, addr.ServerID, addr.ServerID) {
			return newCachedPool(t, CacheConfig{}), 0, 1
		}},
		// Only the device lends, so a planned move finds no room and the
		// owner cannot change; the plan is what shows the stale profile.
		{"physical", func(t *testing.T) (*Pool, addr.ServerID, addr.ServerID) {
			p := testPhysical(t, 16, 4)
			return p, device(p), 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, owner, reader := tc.pool(t)
			a, err := p.Alloc(SliceSize, owner)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			for i := 0; i < 1000; i++ {
				if err := p.Read(reader, a.Addr(), buf); err != nil {
					t.Fatal(err)
				}
			}
			if rep, err := p.BalanceOnce(); err != nil || rep.Planned != 1 {
				t.Fatalf("round over tenant A: %+v, %v; want its one slice planned", rep, err)
			}
			if err := a.Release(); err != nil {
				t.Fatal(err)
			}
			// Nothing is allocated: whatever history is left belongs to
			// a released buffer.
			if rep, _ := p.BalanceOnce(); rep.Planned != 0 {
				t.Fatalf("round over an empty pool planned %d moves", rep.Planned)
			}

			b, err := p.Alloc(SliceSize, owner)
			if err != nil {
				t.Fatal(err)
			}
			if b.Addr() != a.Addr() {
				t.Fatalf("tenant B at %#x, want tenant A's range %#x", b.Addr(), a.Addr())
			}
			home, err := p.OwnerOf(b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := p.Read(home, b.Addr(), buf); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := p.BalanceOnce()
			if err != nil || rep.Planned != 0 {
				t.Errorf("round over tenant B: %+v, %v; want nothing planned", rep, err)
			}
			if now, _ := p.OwnerOf(b.Addr()); now != home {
				t.Errorf("tenant B moved from its only user, server %d, to %d", home, now)
			}
		})
	}
}

// TestProfileDecayKeepsConcurrentAdds: ageing runs against a live data
// path, and rounds may overlap. Every access added to a lane is either
// still in it or was taken off by a round, and no lane wraps below zero.
func TestProfileDecayKeepsConcurrentAdds(t *testing.T) {
	p := planPool(t, 1)
	back := p.lookupSlice(0)
	const adders, perAdder = 4, 20000
	var add, age sync.WaitGroup
	stop := make(chan struct{})
	var aged atomic.Uint64
	for g := 0; g < 2; g++ {
		age.Add(1)
		go func() {
			defer age.Done()
			for {
				select {
				case <-stop:
					return
				default:
					aged.Add(p.ageProfile())
				}
			}
		}()
	}
	for g := 0; g < adders; g++ {
		add.Add(1)
		go func() {
			defer add.Done()
			for i := 0; i < perAdder; i++ {
				p.accountAccess(1, 0, 0, false, 64, back)
			}
		}()
	}
	add.Wait()
	close(stop)
	age.Wait()
	left := back.counts[1].Load()
	if left > adders*perAdder {
		t.Fatalf("lane wrapped: %d", left)
	}
	if got := left + aged.Load(); got != adders*perAdder {
		t.Fatalf("%d left + %d aged = %d, want the %d added", left, aged.Load(), got, adders*perAdder)
	}
	// Quiescent, a round is an exact floor halving.
	back.counts[1].Store(7)
	if took := p.ageProfile(); took != 4 || back.counts[1].Load() != 3 {
		t.Fatalf("halving 7 took %d and left %d, want 4 and 3", took, back.counts[1].Load())
	}
}
