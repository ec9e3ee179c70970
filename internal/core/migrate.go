package core

import (
	"fmt"
	"sort"

	"github.com/lmp-project/lmp/internal/addr"
)

// This file is the locality balancer's planner (§5 "Locality balancing"):
// it reads the profile of which server accesses each slice (the
// performance-counter approach the paper suggests) — the per-issuer
// counters of the slice's table entry, sliceBacking.counts, which the
// data path bumps and ageProfile halves — and ranks migrations toward
// dominant accessors, with hysteresis so ping-ponging data does not
// thrash. background.go executes the plan.

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

// plannedMove is one migration the planner ranked.
type plannedMove struct {
	slice uint64
	// back is the entry the move was planned from; the mover refuses as
	// stale a slice number that has since been freed and granted again.
	back *sliceBacking
	from addr.ServerID
	to   addr.ServerID
	// gain is the access-count margin that justified the move.
	gain uint64
}

// planMoves walks the slice table and returns every migration the policy
// justifies, by descending gain. Owner and profile come off the same
// entry — the only place either is recorded — so a slice freed since its
// accesses were counted has no entry and plans nothing. The per-round
// budget is balanceOnce's to enforce.
func (p *Pool) planMoves() []plannedMove {
	pol := p.cfg.Migration
	var moves []plannedMove
	t := p.table.Load()
	for s := range t.entries {
		back := t.entries[s].Load()
		if back == nil {
			continue
		}
		var best addr.ServerID
		var bestC, total uint64
		for f := range back.counts {
			c := back.counts[f].Load()
			total += c
			if c > bestC { // a tie keeps the lower server id
				best, bestC = addr.ServerID(f), c
			}
		}
		if total == 0 || total < pol.MinAccesses {
			continue
		}
		lock := p.stripeFor(uint64(s))
		lock.RLock()
		owner := back.server
		lock.RUnlock()
		ownerC := back.counts[owner].Load()
		if best == owner || float64(bestC) < pol.HysteresisFactor*float64(ownerC)+1 {
			continue
		}
		moves = append(moves, plannedMove{slice: uint64(s), back: back, from: owner, to: best, gain: bestC - ownerC})
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].gain != moves[j].gain {
			return moves[i].gain > moves[j].gain
		}
		return moves[i].slice < moves[j].slice
	})
	return moves
}

// foldCacheHits adds each cache's per-page hit counts since the last round
// to the entry of the slice the page belongs to: a hit touches no backing
// and so no entry, yet it is exactly the signal that a remote slice is hot
// enough to promote. Release purges a dying range's pages before its
// addresses can be granted again, so a resident page's entry is its own.
func (p *Pool) foldCacheHits() {
	for n := range p.caches {
		p.caches[n].DrainHits(func(page, hits uint64) {
			if back := p.lookupSlice(addr.SliceOf(addr.Logical(page << p.pageShift))); back != nil {
				back.counts[n].Add(hits)
			}
		})
	}
}

// ageProfile halves every slice's per-issuer counters, aging the profile
// between rounds, and reports the total it took off. The compare-and-swap
// retries when a foreground add lands in between, so no access is lost;
// and two overlapping rounds each halve what they find, where subtracting
// half of a value read earlier could take a lane below zero.
func (p *Pool) ageProfile() (aged uint64) {
	t := p.table.Load()
	for s := range t.entries {
		back := t.entries[s].Load()
		if back == nil {
			continue
		}
		for f := range back.counts {
			lane := &back.counts[f]
			for c := lane.Load(); c > 0; c = lane.Load() {
				if lane.CompareAndSwap(c, c/2) {
					aged += c - c/2
					break
				}
			}
		}
	}
	return aged
}
