package core

import (
	"errors"
	"fmt"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// BalanceReport summarizes one locality-balancing round.
type BalanceReport struct {
	// Planned is the number of moves the policy ranked for this round
	// (before the per-round budget is applied).
	Planned  int
	Migrated int
	// Skipped is the total of the per-reason counts below.
	Skipped int
	// SkippedDead counts moves whose source or target server was dead.
	// SkippedCollocated counts moves refused because the target holds
	// the slice's protection state; SkippedAllocFail moves the target
	// region had no room for. Attempted moves — these two — consume the
	// round's budget like a successful migration.
	SkippedDead       int
	SkippedCollocated int
	SkippedAllocFail  int
	// SkippedBusy counts slices another mover (a repair worker, a
	// concurrent MigrateSlice) held the commit-window lock for, and
	// SkippedStale slices freed or re-homed between planning and the
	// move. Neither consumes the budget: they were never this round's
	// work.
	SkippedBusy  int
	SkippedStale int
}

// BalanceOnce runs one round of the locality balancer (§5 "Locality
// balancing"): it consults the access profile, plans slice migrations
// toward dominant accessors, executes them (preserving every logical
// address), and ages the profile.
func (p *Pool) BalanceOnce() (BalanceReport, error) {
	// A balancing round is a root trace: each move's commit window holds
	// the slice's stripe lock in write mode for the dirty delta, so the
	// span's duration and byte count are first-order signals.
	var sp telemetry.Span
	traced := p.obs != nil
	if traced {
		sp = p.obs.tracer.Begin(telemetry.SpanContext{}, "pool.balance")
	}
	rep := p.balanceOnce(sp.Context())
	if traced {
		p.endChild(&sp, rep.Migrated*int(SliceSize), nil)
	}
	return rep, nil
}

// balanceOnce plans against the full ranked move list and enforces the
// policy's per-round budget itself, so a skip whose slice was
// concurrently repaired or freed does not eat a budget slot a viable
// move further down the list could have used. The structural lock is
// taken per move inside the engine, never across the whole list, and
// a slice another mover holds is skipped with TryLock rather than
// stalling the round behind a repair.
func (p *Pool) balanceOnce(sc telemetry.SpanContext) BalanceReport {
	p.foldCacheHits()
	budget := p.migration.maxMoves
	moves := p.planMoves()
	rep := BalanceReport{Planned: len(moves)}
	used := 0
	for _, mv := range moves {
		if budget > 0 && used >= budget {
			break
		}
		if p.isDead(mv.to) || p.isDead(mv.from) {
			rep.SkippedDead++
			continue
		}
		if !mv.back.commit.TryLock() {
			rep.SkippedBusy++
			continue
		}
		err := p.moveOneCommitted(sc, mv.slice, mv.back, mv.to)
		mv.back.commit.Unlock()
		switch {
		case err == nil:
			rep.Migrated++
			used++
		case errors.Is(err, errCollocate):
			rep.SkippedCollocated++
			used++ // attempted: charge the budget
		case errors.Is(err, alloc.ErrNoSpace):
			rep.SkippedAllocFail++
			used++ // attempted: charge the budget
		case errors.Is(err, ErrServerDead):
			rep.SkippedDead++
		default: // errMoveStale and friends: repaired or freed since planning
			rep.SkippedStale++
		}
	}
	rep.Skipped = rep.SkippedDead + rep.SkippedCollocated + rep.SkippedAllocFail +
		rep.SkippedBusy + rep.SkippedStale
	p.ageProfile()
	p.metrics.Counter("pool.migrations").Add(uint64(rep.Migrated))
	p.metrics.Counter("pool.migrations.skipped.dead").Add(uint64(rep.SkippedDead))
	p.metrics.Counter("pool.migrations.skipped.collocated").Add(uint64(rep.SkippedCollocated))
	p.metrics.Counter("pool.migrations.skipped.alloc_fail").Add(uint64(rep.SkippedAllocFail))
	p.metrics.Counter("pool.migrations.skipped.busy").Add(uint64(rep.SkippedBusy))
	p.metrics.Counter("pool.migrations.skipped.stale").Add(uint64(rep.SkippedStale))
	return rep
}

// MigrateSlice forces one slice's backing onto a specific server (the
// mechanism underneath both the balancer and administrative moves). The
// logical address does not change: only the slice's table entry — owner
// and extent, stored together in the commit window — does. Migration
// refuses to collocate a slice with its own replicas or its stripe's
// other shards — that would silently void the protection. Unlike the
// balancer, it blocks on the slice's commit-window lock, so a concurrent
// repair or balance round delays a forced move instead of failing it.
func (p *Pool) MigrateSlice(s uint64, to addr.ServerID) error {
	if err := p.checkServer(to); err != nil {
		return err
	}
	if p.isDead(to) {
		return fmt.Errorf("%w: server %d", ErrServerDead, to)
	}
	for attempt := 0; attempt < maxRecoverAttempts; attempt++ {
		back := p.lookupSlice(s)
		if back == nil {
			return fmt.Errorf("%w: slice %d", addr.ErrUnmapped, s)
		}
		back.commit.Lock()
		err := p.moveOneCommitted(telemetry.SpanContext{}, s, back, to)
		back.commit.Unlock()
		if errors.Is(err, errMoveStale) {
			continue // released or re-homed while we waited; re-resolve
		}
		return err
	}
	return fmt.Errorf("%w: slice %d", addr.ErrUnmapped, s)
}

// ResizeReport summarizes one sizing round.
type ResizeReport struct {
	// SharedBytes is the achieved shared size per server (after clamping
	// to what fragmentation allowed).
	SharedBytes []int64
	// Value is the optimizer's objective for its chosen plan.
	Value float64
}

// ResizeShared moves one server's private/shared boundary. Shrinking
// fails if allocated slices occupy the tail (migrate them first), and a
// crashed server is refused with ErrServerDead: its region is not the
// pool's to resize.
func (p *Pool) ResizeShared(s addr.ServerID, bytes int64) error {
	if err := p.checkServer(s); err != nil {
		return err
	}
	if p.isDead(s) {
		return fmt.Errorf("%w: server %d", ErrServerDead, s)
	}
	if bytes < 0 {
		return fmt.Errorf("core: shared size %d is negative", bytes)
	}
	return p.nodes[s].Resize(bytes - bytes%SliceSize)
}

// SizeOnce runs the global sizing optimization (§5 "Sizing the shared
// regions") against the given per-server loads and applies the result
// best-effort: growth always succeeds, shrinks are clamped by
// fragmentation. It plans over the live servers only — requiredPool must
// fit in them — and reports a crashed server at its current size.
func (p *Pool) SizeOnce(loads []ServerLoad, requiredPool int64) (ResizeReport, error) {
	if len(loads) != len(p.nodes) {
		return ResizeReport{}, fmt.Errorf("core: %d loads for %d servers", len(loads), len(p.nodes))
	}
	var live []addr.ServerID
	var liveLoads []ServerLoad
	for i, l := range loads {
		if s := addr.ServerID(i); !p.isDead(s) {
			live, liveLoads = append(live, s), append(liveLoads, l)
		}
	}
	res, err := optimizeSizes(liveLoads, requiredPool, SliceSize)
	if err != nil {
		return ResizeReport{}, err
	}
	rep := ResizeReport{Value: res.Value, SharedBytes: make([]int64, len(loads))}
	for i := range loads {
		rep.SharedBytes[i] = p.nodes[i].SharedBytes()
	}
	// Grow first so shrinking servers have somewhere to evacuate, then
	// shrink with compaction. A resize that fails keeps the current size.
	for j, s := range live {
		if want := res.SharedBytes[j]; want >= rep.SharedBytes[s] && p.ResizeShared(s, want) == nil {
			rep.SharedBytes[s] = want
		}
	}
	for j, s := range live {
		if want := res.SharedBytes[j]; want < rep.SharedBytes[s] && p.ShrinkShared(s, want) == nil {
			rep.SharedBytes[s] = want
		}
	}
	p.metrics.Counter("pool.resizes").Inc()
	return rep, nil
}
