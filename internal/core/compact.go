package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// This file is shared-region compaction: which blocks must leave a
// server's tail and where each may go. Moving them is the engine's job
// (repair.go) — no function here copies bytes or holds the structural
// lock beyond a snapshot or a reservation.

// CompactReport summarizes a compaction pass.
type CompactReport struct {
	// RelocatedLocal counts slices moved to lower offsets on the same
	// server.
	RelocatedLocal int
	// RelocatedRemote counts slices (or protection blocks) evacuated to
	// other servers.
	RelocatedRemote int
}

// CompactServer evacuates the tail [targetBytes, shared) of server s's
// shared region — primary slices, replica copies, and parity blocks — so
// the region can shrink to targetBytes. Backing is first relocated into
// free space below the target on the same server; what does not fit moves
// to other servers (respecting protection anti-affinity). On success the
// caller can ResizeShared(s, targetBytes).
//
// This is what makes the paper's ratio flexibility operational: without
// compaction, a single hot slice parked at the top of the region pins the
// private/shared boundary forever.
//
// A pass has the shape of RepairServer: it snapshots its victims under
// the structural lock and then moves each one through the engine in
// repair.go, so foreground reads and writes — to the very slice being
// moved — and allocations proceed throughout. It therefore does not
// exclude a concurrent Alloc from landing in the tail it just cleared;
// the ResizeShared that follows then fails as a fragmented shrink does.
func (p *Pool) CompactServer(s addr.ServerID, targetBytes int64) (CompactReport, error) {
	if err := p.checkServer(s); err != nil {
		return CompactReport{}, err
	}
	targetBytes = targetBytes - targetBytes%SliceSize
	if targetBytes < 0 {
		return CompactReport{}, fmt.Errorf("core: negative target")
	}
	var sp telemetry.Span
	traced := p.obs != nil
	if traced {
		sp = p.obs.tracer.Begin(telemetry.SpanContext{}, "pool.compact")
		sp.Server = int(s)
	}
	rep, err := p.compactServer(sp.Context(), evacuation{srv: s, from: targetBytes})
	if traced {
		p.endChild(&sp, (rep.RelocatedLocal+rep.RelocatedRemote)*int(SliceSize), err)
	}
	return rep, err
}

// compactServer moves every block e covers, stopping at the first one
// that cannot move: primaries first, highest offsets first so local
// relocation packs downward, then the protection blocks (replica copies
// and EC parity rows).
func (p *Pool) compactServer(sc telemetry.SpanContext, e evacuation) (rep CompactReport, err error) {
	dead := fmt.Errorf("%w: server %d", ErrServerDead, e.srv)
	p.mu.Lock()
	if p.isDead(e.srv) {
		p.mu.Unlock()
		return rep, dead
	}
	prim, prot := p.snapshotEvacuationLocked(e)
	sort.Slice(prim, func(i, j int) bool { return prim[i].back.offset > prim[j].back.offset })
	p.mu.Unlock()

	for i := 0; i < len(prim)+len(prot); i++ {
		if p.isDead(e.srv) {
			return rep, dead // crashed mid-pass: what is left is repair's job
		}
		var dst addr.ServerID
		if i < len(prim) {
			dst, err = p.evacuatePrimary(sc, e, prim[i])
		} else {
			dst, err = p.rehomeProtection(sc, e, prot[i-len(prim)])
		}
		switch {
		case err != nil:
			return rep, err
		case dst == e.srv:
			rep.RelocatedLocal++
		case dst != addr.NoServer:
			rep.RelocatedRemote++
		}
	}
	p.metrics.Counter("pool.compactions").Inc()
	return rep, nil
}

// evacuatePrimary moves one live primary slice off the region e covers,
// to a server that does not hold the slice's protection state when it
// must leave its own. It reports the new server, or addr.NoServer when
// the slice was released or re-homed since the snapshot. Like
// MigrateSlice it blocks on the slice's commit-window lock.
func (p *Pool) evacuatePrimary(sc telemetry.SpanContext, e evacuation, it repairItem) (addr.ServerID, error) {
	back := it.back
	back.commit.Lock()
	defer back.commit.Unlock()

	p.mu.Lock()
	if p.lookupSlice(it.slice) != back || !e.covers(back.server, back.offset) {
		p.mu.Unlock()
		return addr.NoServer, nil
	}
	avoid := map[addr.ServerID]bool{}
	if back.buf != nil {
		avoid = p.protectionServersLocked(back.buf, it.slice-back.buf.firstSlice())
	}
	dstSrv, dstOff, err := p.reserveEvacuatedLocked(e, avoid)
	p.mu.Unlock()
	if err != nil {
		return addr.NoServer, fmt.Errorf("core: no space to evacuate slice %d from server %d: %w", it.slice, e.srv, err)
	}
	err = p.movePrimaryCommitted(sc, it.slice, back, dstSrv, dstOff)
	if errors.Is(err, errMoveStale) {
		return addr.NoServer, nil // released, or an end crashed, mid-move
	}
	return dstSrv, err
}

// ShrinkShared shrinks server s's shared region to targetBytes, running a
// compaction pass first when live data blocks the boundary.
func (p *Pool) ShrinkShared(s addr.ServerID, targetBytes int64) error {
	if err := p.ResizeShared(s, targetBytes); err == nil {
		return nil
	}
	if _, err := p.CompactServer(s, targetBytes); err != nil {
		return err
	}
	return p.ResizeShared(s, targetBytes)
}
