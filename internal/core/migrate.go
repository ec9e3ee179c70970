package core

import (
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

// The planner's thresholds, set by analogy with NUMA balancing's
// conservatism and not measured (ROADMAP item 6).
const (
	// migrateMinAccesses is the access count below which a slice is not
	// considered at all: cold data stays put.
	migrateMinAccesses = 16
	// migrateHysteresis is the multiple by which the challenger must
	// beat the current owner's own accesses.
	migrateHysteresis = 2.0
	// migrateMaxMoves caps the migrations of one balancing round.
	migrateMaxMoves = 64
)

// migrationPolicy is the planner's tuning: the constants above, in the
// pool so a test can set others on a built pool. maxMoves 0 means
// unlimited.
type migrationPolicy struct {
	minAccesses uint64
	hysteresis  float64
	maxMoves    int
}

var defaultMigrationPolicy = migrationPolicy{migrateMinAccesses, migrateHysteresis, migrateMaxMoves}

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
	pol := p.migration
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
		if total == 0 || total < pol.minAccesses {
			continue
		}
		lock := p.stripeFor(uint64(s))
		lock.RLock()
		owner := back.server
		lock.RUnlock()
		ownerC := back.counts[owner].Load()
		if best == owner || float64(bestC) < pol.hysteresis*float64(ownerC)+1 {
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
