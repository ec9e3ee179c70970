package core

import (
	"fmt"
	"sort"
	"sync"

	"github.com/lmp-project/lmp/internal/addr"
)

// This file is the locality balancer's planner (§5 "Locality balancing"):
// the profile of which server accesses each slice (the performance-counter
// approach the paper suggests) and the policy that ranks migrations
// toward dominant accessors, with hysteresis so ping-ponging data does
// not thrash. background.go executes the plan.

// MigrationPolicy tunes the planner.
type MigrationPolicy struct {
	// MinAccesses is the minimum access count for a slice to be
	// considered at all (cold data stays put).
	MinAccesses uint64
	// HysteresisFactor requires the challenger to beat the current
	// owner's local accesses by this multiple (>= 1).
	HysteresisFactor float64
	// MaxMoves caps migrations per round; 0 means unlimited.
	MaxMoves int
}

// defaultMigrationPolicy matches NUMA-balancing-style conservatism.
func defaultMigrationPolicy() MigrationPolicy {
	return MigrationPolicy{MinAccesses: 16, HysteresisFactor: 2.0, MaxMoves: 64}
}

// Validate checks the policy.
func (p MigrationPolicy) Validate() error {
	if p.HysteresisFactor < 1 {
		return fmt.Errorf("core: migration hysteresis factor %v must be >= 1", p.HysteresisFactor)
	}
	if p.MaxMoves < 0 {
		return fmt.Errorf("core: migration max moves %d negative", p.MaxMoves)
	}
	return nil
}

// accessMatrix records per-slice access counts by accessing server, the
// data a performance-counter profiler would gather.
type accessMatrix struct {
	mu     sync.Mutex
	counts map[uint64]map[addr.ServerID]uint64
}

func newAccessMatrix() *accessMatrix {
	return &accessMatrix{counts: make(map[uint64]map[addr.ServerID]uint64)}
}

// accessSample is one (slice, accessor, count) observation.
type accessSample struct {
	slice uint64
	from  addr.ServerID
	count uint64
}

// recordBatch folds a batch of samples under one lock acquisition: the
// harvest drains hundreds of per-slice counter lanes and cache hit
// counters per round.
func (m *accessMatrix) recordBatch(batch []accessSample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range batch {
		if b.count == 0 {
			continue
		}
		row := m.counts[b.slice]
		if row == nil {
			row = make(map[addr.ServerID]uint64)
			m.counts[b.slice] = row
		}
		row[b.from] += b.count
	}
}

// decay halves all counts, aging the profile between rounds.
func (m *accessMatrix) decay() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for s, row := range m.counts {
		empty := true
		for f, c := range row {
			row[f] = c / 2
			if row[f] > 0 {
				empty = false
			}
		}
		if empty {
			delete(m.counts, s)
		}
	}
}

// plannedMove is one migration the planner ranked.
type plannedMove struct {
	slice uint64
	from  addr.ServerID
	to    addr.ServerID
	// gain is the access-count margin that justified the move.
	gain uint64
}

// planMoves examines the profile against current ownership — read from
// the slice table, the only place it is recorded — and returns every
// migration the policy justifies, by descending gain. The per-round
// budget is balanceOnce's to enforce.
func (p *Pool) planMoves() []plannedMove {
	pol := p.cfg.Migration
	m := p.matrix
	m.mu.Lock()
	defer m.mu.Unlock()
	var moves []plannedMove
	for s, row := range m.counts {
		home, ok := p.homeOf(s)
		if !ok {
			continue // unmapped slices cannot move
		}
		owner := home.Server
		var best addr.ServerID
		var bestC, total uint64
		first := true
		for f, c := range row {
			total += c
			if first || c > bestC || (c == bestC && f < best) {
				best, bestC, first = f, c, false
			}
		}
		ownerC := row[owner]
		if total < pol.MinAccesses || best == owner {
			continue
		}
		if float64(bestC) < pol.HysteresisFactor*float64(ownerC)+1 {
			continue
		}
		moves = append(moves, plannedMove{slice: s, from: owner, to: best, gain: bestC - ownerC})
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].gain != moves[j].gain {
			return moves[i].gain > moves[j].gain
		}
		return moves[i].slice < moves[j].slice
	})
	return moves
}
