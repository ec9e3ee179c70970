package core

import (
	"sync"
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

func (m *accessMatrix) record(s uint64, from addr.ServerID, n uint64) {
	m.recordBatch([]accessSample{{slice: s, from: from, count: n}})
}

func (m *accessMatrix) count(s uint64, from addr.ServerID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[s][from]
}

func (m *accessMatrix) slices() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.counts)
}

func TestAccessMatrixRecordAndDecay(t *testing.T) {
	m := newAccessMatrix()
	m.record(3, 1, 10)
	m.record(3, 2, 4)
	if m.count(3, 1) != 10 || m.count(3, 2) != 4 {
		t.Fatal("counts wrong")
	}
	m.decay()
	if m.count(3, 1) != 5 || m.count(3, 2) != 2 {
		t.Fatal("decay wrong")
	}
	// Decaying to zero drops the slice.
	m.record(9, 0, 1)
	m.decay() // slice 9 -> 0
	m.decay()
	m.decay() // slice 3 -> 0 too
	if n := m.slices(); n != 0 {
		t.Fatalf("%d slices after full decay", n)
	}
}

func TestPlanMovesHotRemoteSlice(t *testing.T) {
	p := planPool(t, 4)
	// Slice 2 is hammered by server 1, barely touched by its owner 0.
	p.matrix.record(2, 1, 100)
	p.matrix.record(2, 0, 5)
	moves := p.planMoves()
	if len(moves) != 1 {
		t.Fatalf("moves = %+v, want 1", moves)
	}
	if mv := moves[0]; mv != (plannedMove{slice: 2, from: 0, to: 1, gain: 95}) {
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
	p.matrix.record(1, 2, 100) // local to the new owner: nothing to do
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("locally-dominant slice planned to move: %+v", moves)
	}
	p.matrix.record(1, 3, 1000)
	moves := p.planMoves()
	if len(moves) != 1 || moves[0].from != 2 || moves[0].to != 3 {
		t.Fatalf("moves = %+v, want slice 1 from 2 to 3", moves)
	}
}

func TestPlanHysteresisKeepsMarginalSlices(t *testing.T) {
	p := planPool(t, 2)
	// Challenger leads but not by the 2x hysteresis factor.
	p.matrix.record(0, 1, 30)
	p.matrix.record(0, 0, 20)
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("marginal slice moved: %+v", moves)
	}
}

func TestPlanColdSlicesStayPut(t *testing.T) {
	p := planPool(t, 2)
	p.matrix.record(1, 1, 5) // below MinAccesses=16
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("cold slice moved: %+v", moves)
	}
}

func TestPlanLocalDominantNoMove(t *testing.T) {
	p := planPool(t, 2)
	p.matrix.record(0, 0, 100)
	p.matrix.record(0, 1, 10)
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("locally-dominant slice moved: %+v", moves)
	}
}

// TestPlanOrdersByGainAndCapsMoves: the planner ranks every justified
// move by gain; the round's budget, enforced by the balancer, takes the
// top of the list.
func TestPlanOrdersByGainAndCapsMoves(t *testing.T) {
	p := planPool(t, 8)
	p.cfg.Migration.MaxMoves = 3
	for s := uint64(0); s < 8; s++ {
		p.matrix.record(s, 1, 50+10*s)
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
	p := planPool(t, 0) // nothing allocated
	p.matrix.record(0, 1, 1000)
	if moves := p.planMoves(); len(moves) != 0 {
		t.Fatalf("unmapped slice moved: %+v", moves)
	}
}

func TestPolicyValidation(t *testing.T) {
	for _, pol := range []MigrationPolicy{
		{HysteresisFactor: 0.5},
		{HysteresisFactor: 1, MaxMoves: -1},
	} {
		if err := pol.Validate(); err == nil {
			t.Errorf("policy %+v accepted", pol)
		}
		cfg := Config{Servers: []ServerConfig{{Capacity: SliceSize, SharedBytes: SliceSize}}, Migration: pol}
		if _, err := New(cfg); err == nil {
			t.Errorf("pool built with policy %+v", pol)
		}
	}
}

func TestPlanDeterministicTieBreak(t *testing.T) {
	p := planPool(t, 1)
	// Servers 1 and 2 tie; lower id must win deterministically.
	p.matrix.record(0, 1, 50)
	p.matrix.record(0, 2, 50)
	for i := 0; i < 5; i++ {
		moves := p.planMoves()
		if len(moves) != 1 || moves[0].to != 1 {
			t.Fatalf("tie break: %+v", moves)
		}
	}
}

func TestAccessMatrixConcurrent(t *testing.T) {
	m := newAccessMatrix()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.record(uint64(i%16), addr.ServerID(g%4), 1)
			}
		}()
	}
	wg.Wait()
	var total uint64
	for s := uint64(0); s < 16; s++ {
		for f := addr.ServerID(0); f < 4; f++ {
			total += m.count(s, f)
		}
	}
	if total != 4000 {
		t.Fatalf("total recorded = %d, want 4000", total)
	}
}

func TestRecordBatch(t *testing.T) {
	m := newAccessMatrix()
	m.record(1, 0, 5)
	m.recordBatch([]accessSample{
		{slice: 1, from: 0, count: 3},
		{slice: 1, from: 2, count: 7},
		{slice: 4, from: 1, count: 0}, // zero counts are dropped
		{slice: 9, from: 1, count: 2},
	})
	if got := m.count(1, 0); got != 8 {
		t.Errorf("count(1,0) = %d want 8", got)
	}
	if got := m.count(1, 2); got != 7 {
		t.Errorf("count(1,2) = %d want 7", got)
	}
	if got := m.count(9, 1); got != 2 {
		t.Errorf("count(9,1) = %d want 2", got)
	}
	if n := m.slices(); n != 2 {
		t.Errorf("%d slices recorded, want 2 (1 and 9)", n)
	}
	m.recordBatch(nil) // no-op
}
