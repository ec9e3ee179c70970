package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// This file is the parallel repair / live-migration engine: the pool's
// control plane for re-homing slice-sized blocks. Crash repair,
// migration (locality balancing, administrative moves) and compaction
// (compact.go) all copy a block to its new home through one two-phase
// mover, moveBlockCommitted, which holds locks only for short windows:
//
//	plan      p.mu          validate, reserve the destination extent
//	pre-copy  chunked RLock bulk copy while foreground traffic proceeds
//	commit    p.mu + stripe re-validate, copy the dirty delta, publish
//
// The callers differ only in where the bytes are read from, what the
// commit publishes (a primary's rebind, or a replica block's new
// location) and how the destination was reserved. A dead primary has no
// bytes to copy: repairSliceCommitted reconstructs it instead and shares
// only the rebind. Parity rows are recomputed, not copied (repairParity).
//
// Every mover of a slice — and of the replica blocks protecting it —
// serializes on the slice's commit-window lock (sliceBacking.commit),
// held across all three phases. Because all movers hold it, a commit
// holder may read the backing fields it is about to re-validate without
// racing another mover; foreground writers to a dead-owned slice also
// park on it (recoverSliceInner), which is what freezes a crashed
// slice's replica bytes during repair.
//
// Lock order: commit-window → structural (p.mu) → stripe → ec.mu.
// Nothing acquires a commit-window lock while holding any of the inner
// three.

// RepairConfig tunes the repair/migration engine (see DESIGN.md
// "Parallel recovery and live migration" and WithRepairParallelism).
type RepairConfig struct {
	// Parallelism bounds the worker pool RepairServer fans slice
	// reconstruction across. 0 or 1 repairs serially in slice-table
	// order — the deterministic default the chaos harness replays.
	Parallelism int
	// FabricDelay, when non-nil, is invoked once per slice-sized
	// transfer the engine issues (repair shard reads, migration bulk
	// copies), outside any lock. lmpbench injects a sleep here to model
	// fabric RTT; production configs leave it nil.
	FabricDelay func()
}

// commitWindow is the per-slice mover lock. It is a distinct type (not
// a bare sync.Mutex field) so lmplint classifies it as its own lock
// class in the whole-program lock graph.
type commitWindow struct {
	sync.Mutex
}

// moveChunk is the pre-copy granularity: each chunk is read under its
// own short stripe read-lock hold, so a bulk copy never blocks a
// foreground writer for more than one chunk.
const moveChunk = 256 << 10

// sliceScratch pools slice-size staging buffers for the engine.
// Reconstruction touches up to K+M of them per slice and migration one
// per move; allocating 2MiB a pop made the old control plane's
// allocation rate scale with repair size. Package-level (not a local)
// so the whole-program allocation analysis attributes the make to
// initialization, not to a lock-holding caller.
var sliceScratch = sync.Pool{New: func() any {
	b := make([]byte, SliceSize)
	return &b
}}

func getSliceBuf() *[]byte  { return sliceScratch.Get().(*[]byte) }
func putSliceBuf(b *[]byte) { sliceScratch.Put(b) }

// errMoveStale reports a move whose slice was freed, re-homed, or
// crashed between planning and commit; the balancer classifies these as
// skips that do not consume the round's budget.
var errMoveStale = errors.New("core: slice changed during move")

// errCollocate reports a migration refused because the target holds the
// slice's protection state.
var errCollocate = errors.New("core: migration would collocate a slice with its protection")

// fabricDelay charges one modeled fabric round-trip when the config
// injects one.
func (p *Pool) fabricDelay() {
	if d := p.cfg.Repair.FabricDelay; d != nil {
		d()
	}
}

// repairWorkers is the effective repair fan-out.
func (p *Pool) repairWorkers() int {
	if n := p.cfg.Repair.Parallelism; n > 1 {
		return n
	}
	return 1
}

// RepairServer proactively rebuilds every slice owned by the crashed
// server s, then re-homes the protection state (replica chunks, parity
// blocks) the dead server hosted for other buffers, restoring the full
// tolerated-failure count. It reports how many slices were recovered and
// returns the first error in deterministic (snapshot) order, after
// attempting all slices and protection blocks.
func (p *Pool) RepairServer(s addr.ServerID) (recovered int, firstErr error) {
	// Repair is a root trace; with the engine it no longer holds the
	// structural lock end-to-end, so its duration now bounds fabric work,
	// not allocation stalls.
	var sp telemetry.Span
	sc := telemetry.SpanContext{}
	traced := p.obs != nil
	if traced {
		sp = p.obs.tracer.Begin(telemetry.SpanContext{}, "pool.repair")
		sp.Server = int(s)
		sc = sp.Context()
	}
	recovered, firstErr = p.repairServer(sc, s)
	if traced {
		p.endChild(&sp, recovered*int(SliceSize), firstErr)
	}
	return recovered, firstErr
}

// repairItem is one dead-owned primary slice in a repair snapshot.
type repairItem struct {
	slice uint64
	back  *sliceBacking
}

// protItem is one protection block to re-home in repair phase B: a
// replica chunk (kind protReplica) or a parity block (protParity).
type protItem struct {
	kind protKind
	b    *Buffer
	c    int    // replica: copy index
	idx  uint64 // replica: slice index within the buffer
	si   int    // parity: stripe index
	m    int    // parity: parity row
}

type protKind int

const (
	protReplica protKind = iota
	protParity
)

// evacuation names the blocks a pass re-homes: everything server srv
// holds at or above offset from. Repair evacuates a dead server's whole
// region (from 0); compaction a live server's tail above the shrink
// target. The plan phase of every mover re-checks covers, so an item
// another pass already moved is skipped.
type evacuation struct {
	srv  addr.ServerID
	from int64
}

func (e evacuation) covers(srv addr.ServerID, off int64) bool {
	return srv == e.srv && off >= e.from
}

// snapshotEvacuationLocked lists the primaries (slice-table order) and
// protection blocks e covers. p.buffers is a map, so the protection
// items are sorted: serial passes (and their spans and placement
// decisions) replay deterministically. Caller holds p.mu.
func (p *Pool) snapshotEvacuationLocked(e evacuation) (prim []repairItem, prot []protItem) {
	t := p.table.Load()
	for sl := range t.entries {
		back := t.entries[sl].Load()
		if back != nil && e.covers(back.server, back.offset) {
			prim = append(prim, repairItem{slice: uint64(sl), back: back})
		}
	}
	for _, b := range p.buffers {
		for c := range b.copies {
			for i, cp := range b.copies[c] {
				if e.covers(cp.Server, cp.Offset) {
					prot = append(prot, protItem{kind: protReplica, b: b, c: c, idx: uint64(i)})
				}
			}
		}
		if b.ec == nil {
			continue
		}
		for si := range b.ec.stripes {
			for m, pb := range b.ec.stripes[si].parity {
				if e.covers(pb.server, pb.offset) {
					prot = append(prot, protItem{kind: protParity, b: b, si: si, m: m})
				}
			}
		}
	}
	sort.Slice(prot, func(i, j int) bool {
		a, b := prot[i], prot[j]
		if a.b.rng.Start != b.b.rng.Start {
			return a.b.rng.Start < b.b.rng.Start
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.kind == protReplica {
			if a.c != b.c {
				return a.c < b.c
			}
			return a.idx < b.idx
		}
		if a.si != b.si {
			return a.si < b.si
		}
		return a.m < b.m
	})
	return prim, prot
}

// reserveEvacuatedLocked reserves the new home of a block e covers: the
// first-fit slot below e.from on the same server when it is alive and
// has one (extents grant from the bottom, so a grant below the target is
// final), else the emptiest live server outside avoid (to which e.srv is
// added). Caller holds p.mu.
func (p *Pool) reserveEvacuatedLocked(e evacuation, avoid map[addr.ServerID]bool) (addr.ServerID, int64, error) {
	if !p.isDead(e.srv) {
		if off, err := p.nodes[e.srv].Alloc(SliceSize); err == nil {
			if off < e.from {
				return e.srv, off, nil
			}
			_, _ = p.nodes[e.srv].Free(off) // cannot fail: just granted
		}
	}
	avoid[e.srv] = true
	srv, off, err := p.allocAvoiding(avoid)
	if err == nil && srv == e.srv {
		// allocAvoiding's last-resort fallback landed back in the region
		// being vacated, necessarily at or above e.from.
		_, _ = p.nodes[srv].Free(off)
		err = fmt.Errorf("core: evacuate server %d: %w", e.srv, alloc.ErrNoSpace)
	}
	return srv, off, err
}

// repairServer snapshots the dead server's work under p.mu, then runs
// it in two phases across a bounded worker pool: primaries first, then
// — after a sync point, because parity rebuild reads the data shards —
// the protection blocks. Locks are held only inside each item's plan
// and commit windows, never across the fan-out.
func (p *Pool) repairServer(sc telemetry.SpanContext, s addr.ServerID) (recovered int, firstErr error) {
	p.mu.Lock()
	if !p.isDead(s) {
		p.mu.Unlock()
		return 0, fmt.Errorf("core: server %d is alive", s)
	}
	e := evacuation{srv: s}
	prim, prot := p.snapshotEvacuationLocked(e)
	p.mu.Unlock()

	workers := p.repairWorkers()
	recovered, firstErr = p.runRepairPhase(len(prim), workers, func(i int) error {
		return p.repairPrimary(sc, prim[i])
	})
	// Sync point: every primary is live before protection rebuild reads
	// data shards.
	moved, protErr := p.runRepairPhase(len(prot), workers, func(i int) error {
		return p.repairProtection(sc, e, prot[i])
	})
	if protErr != nil && firstErr == nil {
		firstErr = protErr
	}
	p.metrics.Counter("pool.repair.protection_blocks").Add(uint64(moved))
	return recovered, firstErr
}

// runRepairPhase runs n independent repair items across a worker pool
// of the given width, reporting how many succeeded and the error of the
// lowest-indexed failure — so the surfaced error is the same under any
// worker interleaving.
func (p *Pool) runRepairPhase(n, workers int, run func(i int) error) (done int, firstErr error) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			done++
		}
		return done, firstErr
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = n
	)
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			err := run(i)
			mu.Lock()
			if err != nil {
				if i < errIdx {
					errIdx = i
					firstErr = err
				}
			} else {
				done++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return done, firstErr
}

// repairPrimary rebuilds one dead-owned primary slice under its
// commit-window lock.
func (p *Pool) repairPrimary(sc telemetry.SpanContext, it repairItem) error {
	sp, traced := p.beginChild(sc, "pool.repair.slice")
	it.back.commit.Lock()
	err := p.repairSliceCommitted(it.slice, it.back)
	it.back.commit.Unlock()
	if traced {
		p.endChild(&sp, int(SliceSize), err)
	}
	return err
}

// repairProtection re-homes one protection block under a child span.
func (p *Pool) repairProtection(sc telemetry.SpanContext, e evacuation, it protItem) error {
	sp, traced := p.beginChild(sc, "pool.repair.protection")
	_, err := p.rehomeProtection(sp.Context(), e, it)
	if traced {
		p.endChild(&sp, int(SliceSize), err)
	}
	return err
}

// rehomeProtection re-homes one protection block e covers, reporting its
// new server (addr.NoServer when there was nothing left to do).
func (p *Pool) rehomeProtection(sc telemetry.SpanContext, e evacuation, it protItem) (addr.ServerID, error) {
	if it.kind == protReplica {
		return p.rehomeReplica(sc, e, it.b, it.c, it.idx)
	}
	return p.rehomeParity(e, it.b, it.si, it.m)
}

// repairSliceCommitted rebuilds slice s, whose owner crashed, onto a
// live server. The caller holds back's commit-window lock; every other
// mover serializes behind it, and foreground writers to the dead-owned
// slice are parked inside recoverSliceInner on the same lock, so the
// slice's surviving replica bytes are frozen for the duration. Shard
// reads, reconstruction, and the bulk write all run with no pool lock
// held; only the plan and the final rebind take p.mu (plus the stripe
// lock for the rebind).
//
//lmp:commitwindow
func (p *Pool) repairSliceCommitted(s uint64, back *sliceBacking) error {
	p.mu.Lock()
	if p.lookupSlice(s) != back {
		p.mu.Unlock()
		return nil // released or re-mapped while we waited for the commit lock
	}
	deadSrv := back.server
	if !p.isDead(deadSrv) {
		p.mu.Unlock()
		return nil // another mover already recovered it
	}
	b := back.buf
	if b == nil || b.prot.Scheme == failure.None {
		p.mu.Unlock()
		return &failure.MemoryException{Addr: addr.SliceBase(s), Server: deadSrv}
	}
	idx := s - b.firstSlice()
	dstSrv, dstOff, err := p.allocAvoiding(p.protectionServersLocked(b, idx))
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()

	// Barrier: drain any writer that took the stripe lock before the
	// crash was observed. New writers cannot start — a write to a
	// dead-owned slice recovers it first and parks on our commit lock —
	// so after this acquire/release the slice is frozen.
	lock := p.stripeFor(s)
	lock.Lock()
	lock.Unlock() //nolint:staticcheck // empty critical section is the barrier

	scratch := getSliceBuf()
	data := (*scratch)[:SliceSize]
	switch b.prot.Scheme {
	case failure.Replicate:
		err = p.readSurvivingReplica(b, s, idx, back, deadSrv, data)
	case failure.ErasureCode:
		err = p.reconstructEC(b, idx, data)
	}
	if err == nil {
		err = p.nodes[dstSrv].WriteAt(data, dstOff)
	}
	putSliceBuf(scratch)
	if err != nil {
		p.mu.Lock()
		p.freeBackingLocked(dstSrv, dstOff)
		p.mu.Unlock()
		if errors.Is(err, errMoveStale) {
			return nil // the slice was released mid-rebuild: nothing to repair
		}
		return err
	}

	// Commit window: re-validate and rebind. Nothing else can have moved
	// the slice (we hold its commit lock), but Release may have freed it.
	p.mu.Lock()
	lock.Lock()
	if p.lookupSlice(s) != back || back.server != deadSrv {
		lock.Unlock()
		p.freeBackingLocked(dstSrv, dstOff)
		p.mu.Unlock()
		return nil
	}
	p.rebindLocked(s, back, dstSrv, dstOff)
	lock.Unlock()
	p.metrics.Counter("pool.recoveries").Inc()
	p.mu.Unlock()
	return nil
}

// rebindLocked points slice s at (dstSrv, dstOff) and is the only place
// a primary's (server, offset) changes: it swaps the entry's two fields —
// owner and extent, both translation steps, one record — frees the old
// extent (a no-op when the old owner is dead: its memory is gone) and
// invalidates the new owner's cache. The caller holds p.mu and the
// slice's stripe lock in write mode, so every reader of the entry sees
// the old home or the new one, never a mix. For erasure-coded buffers the
// swap additionally holds the buffer's EC lock: reconstruction snapshots
// sibling backing fields and bytes under ec.mu alone, so field mutation
// and the extent free must be ordered against it.
func (p *Pool) rebindLocked(s uint64, back *sliceBacking, dstSrv addr.ServerID, dstOff int64) {
	var ecmu *sync.Mutex
	if back.buf != nil && back.buf.ec != nil {
		ecmu = &back.buf.ec.mu
		ecmu.Lock()
	}
	oldSrv, oldOff := back.server, back.offset
	back.server, back.offset = dstSrv, dstOff
	p.freeBackingLocked(oldSrv, oldOff)
	if ecmu != nil {
		ecmu.Unlock()
	}
	if p.caches != nil {
		// The slice is local to its owner; drop the owner's cached copies
		// so its reads hit backing DRAM directly (local pages are never
		// cached). Other nodes' copies stay valid — the bytes did not
		// change, only their home.
		p.dropCachedPagesLocked(dstSrv, s)
	}
}

// readSurvivingReplica copies slice s's bytes from the first live
// replica into out. The caller holds the slice's commit lock with the
// owner dead, so writers are parked and the replica bytes frozen; the
// chunked stripe read locks order the reads against structural
// relocation of the replica blocks (compaction) without stalling
// concurrent readers of other slices in the stripe. Each chunk
// re-validates the backing: Release unpublishes the slice under the
// stripe lock before freeing its replicas, so a stale lookup aborts the
// read before it can touch a freed (possibly re-allocated) extent.
func (p *Pool) readSurvivingReplica(b *Buffer, s, idx uint64, back *sliceBacking, deadSrv addr.ServerID, out []byte) error {
	lock := p.stripeFor(s)
	for c := range b.copies {
		live := true
		for off := int64(0); off < SliceSize && live; off += moveChunk {
			n := int64(moveChunk)
			if SliceSize-off < n {
				n = SliceSize - off
			}
			lock.RLock()
			if p.lookupSlice(s) != back {
				lock.RUnlock()
				return fmt.Errorf("%w: slice %d", errMoveStale, s)
			}
			cp := b.copies[c][idx]
			if p.isDead(cp.Server) {
				live = false
			} else if err := p.nodes[cp.Server].ReadAt(out[off:off+n], cp.Offset+off); err != nil {
				lock.RUnlock()
				return err
			}
			lock.RUnlock()
		}
		if live {
			p.fabricDelay()
			return nil
		}
	}
	return &failure.MemoryException{Addr: addr.SliceBase(s), Server: deadSrv}
}

// reconstructEC rebuilds buffer slice idx from its stripe's survivors
// into out. The survivor snapshot is read under the buffer's EC lock —
// every EC shard mutation (data write + parity delta) runs under it, so
// one hold yields a consistent stripe cut, and the erased shard's
// solution is invariant across cuts (sibling writes move sibling and
// parity together, never the solution). The O(K·SliceSize) decode runs
// after release on pooled scratch.
func (p *Pool) reconstructEC(b *Buffer, idx uint64, out []byte) error {
	k := uint64(b.prot.K)
	st := &b.ec.stripes[idx/k]
	total := b.prot.K + b.prot.M
	shards := make([][]byte, total)
	held := make([]*[]byte, 0, total)
	defer func() {
		for _, sb := range held {
			putSliceBuf(sb)
		}
	}()
	first := b.firstSlice()
	nSlices := b.sliceCount()
	reads := 0
	b.ec.mu.Lock()
	for j := 0; j < b.prot.K; j++ {
		slIdx := st.firstIdx + uint64(j)
		if slIdx == idx {
			continue // the erased shard we are solving for
		}
		if slIdx >= nSlices {
			// Virtual zero shard beyond the buffer's end.
			sb := getSliceBuf()
			held = append(held, sb)
			z := (*sb)[:SliceSize]
			clear(z)
			shards[j] = z
			continue
		}
		sib := p.lookupSlice(first + slIdx)
		if sib == nil || p.isDead(sib.server) {
			continue // erased
		}
		sb := getSliceBuf()
		held = append(held, sb)
		buf := (*sb)[:SliceSize]
		if err := p.nodes[sib.server].ReadAt(buf, sib.offset); err != nil {
			b.ec.mu.Unlock()
			return err
		}
		shards[j] = buf
		reads++
	}
	for m, pb := range st.parity {
		if p.isDead(pb.server) {
			continue
		}
		sb := getSliceBuf()
		held = append(held, sb)
		buf := (*sb)[:SliceSize]
		if err := p.nodes[pb.server].ReadAt(buf, pb.offset); err != nil {
			b.ec.mu.Unlock()
			return err
		}
		shards[b.prot.K+m] = buf
		reads++
	}
	b.ec.mu.Unlock()
	// Fabric cost of the survivor reads, charged outside every lock so
	// parallel workers overlap their transfers.
	for i := 0; i < reads; i++ {
		p.fabricDelay()
	}
	outRow := make([][]byte, b.prot.K)
	outRow[idx-st.firstIdx] = out
	if err := b.ec.rs.ReconstructInto(shards, outRow); err != nil {
		return fmt.Errorf("core: reconstruct slice %d: %w", idx, err)
	}
	return nil
}

// replicaSourceLocked picks a live source for replica copy c of buffer
// slice idx: the primary if alive, else any live sibling copy. The
// caller holds the slice's stripe lock (either mode), which is what
// keeps the returned location valid to read.
func (p *Pool) replicaSourceLocked(b *Buffer, back *sliceBacking, c int, idx uint64) (addr.ServerID, int64, bool) {
	if !p.isDead(back.server) {
		return back.server, back.offset, true
	}
	for c2, cp := range b.copies {
		if c2 == c || p.isDead(cp[idx].Server) {
			continue
		}
		return cp[idx].Server, cp[idx].Offset, true
	}
	return 0, 0, false
}

// rehomeReplica moves replica copy c of buffer slice idx off the region
// e covers. The bytes come from the old block while its server lives
// (compaction), else from the primary or a sibling copy (repair). It
// holds the protected slice's commit lock so no other mover re-homes the
// primary mid-copy; the primary stays fully writable — writes go through
// to the old block too, the dirty interval tracks them during the bulk
// copy and the commit window re-copies just that delta.
func (p *Pool) rehomeReplica(sc telemetry.SpanContext, e evacuation, b *Buffer, c int, idx uint64) (addr.ServerID, error) {
	sl := b.firstSlice() + idx
	back := p.lookupSlice(sl)
	if back == nil {
		return addr.NoServer, nil // buffer released since the snapshot
	}
	back.commit.Lock()
	defer back.commit.Unlock()

	p.mu.Lock()
	old := b.copies[c][idx]
	if b.released.Load() || p.lookupSlice(sl) != back || !e.covers(old.Server, old.Offset) {
		p.mu.Unlock()
		return addr.NoServer, nil
	}
	avoid := p.protectionServersLocked(b, idx)
	avoid[back.server] = true
	srv, off, err := p.reserveEvacuatedLocked(e, avoid)
	p.mu.Unlock()
	if err != nil {
		return addr.NoServer, err
	}

	err = p.moveBlockCommitted(sc, blockMove{
		s: sl, back: back, dstSrv: srv, dstOff: off,
		src: func() (addr.ServerID, int64, error) {
			if !p.isDead(old.Server) {
				return old.Server, old.Offset, nil
			}
			if srcSrv, srcOff, ok := p.replicaSourceLocked(b, back, c, idx); ok {
				return srcSrv, srcOff, nil
			}
			return 0, 0, &failure.MemoryException{Addr: addr.SliceBase(sl), Server: old.Server}
		},
		publish: func() {
			b.copies[c][idx] = alloc.Chunk{Server: srv, Offset: off, Size: SliceSize}
			p.freeBackingLocked(old.Server, old.Offset)
		},
	})
	if errors.Is(err, errMoveStale) {
		return addr.NoServer, nil // buffer released mid-copy: nothing to re-home
	}
	return srv, err
}

// rehomeParity recomputes parity row m of EC stripe si onto a new home
// when e covers the row: a dead server's rows in repair phase B (after
// every data shard is live), a live server's tail rows in compaction.
// The shard snapshot and the stripe's version are read under ec.mu; the
// O(K·SliceSize) row compute and the bulk write run unlocked; the swap
// re-checks the version, so a foreground write that changed the stripe
// between snapshot and swap forces a re-read instead of committing a
// stale row. After repeated collisions it falls back to computing the
// row with the stripe frozen, which is the pre-engine behavior.
func (p *Pool) rehomeParity(e evacuation, b *Buffer, si, m int) (addr.ServerID, error) {
	st := &b.ec.stripes[si]
	first := b.firstSlice()
	k := b.prot.K

	p.mu.Lock()
	old := st.parity[m]
	if b.released.Load() || !e.covers(old.server, old.offset) {
		p.mu.Unlock()
		return addr.NoServer, nil
	}
	avoid := make(map[addr.ServerID]bool)
	for j := 0; j < k; j++ {
		slIdx := st.firstIdx + uint64(j)
		if slIdx >= b.sliceCount() {
			continue
		}
		if back := p.lookupSlice(first + slIdx); back != nil {
			avoid[back.server] = true
		}
	}
	for _, pb := range st.parity {
		avoid[pb.server] = true
	}
	srv, off, err := p.reserveEvacuatedLocked(e, avoid)
	p.mu.Unlock()
	if err != nil {
		return addr.NoServer, err
	}

	rowBuf := getSliceBuf()
	defer putSliceBuf(rowBuf)
	row := (*rowBuf)[:SliceSize]
	held := make([]*[]byte, 0, k)
	defer func() {
		for _, sb := range held {
			putSliceBuf(sb)
		}
	}()
	shards := make([][]byte, k)
	for j := range shards {
		sb := getSliceBuf()
		held = append(held, sb)
		shards[j] = (*sb)[:SliceSize]
	}
	parityOut := make([][]byte, b.prot.M)
	parityOut[m] = row

	abort := func(err error) (addr.ServerID, error) {
		p.mu.Lock()
		p.freeBackingLocked(srv, off)
		p.mu.Unlock()
		return addr.NoServer, err
	}
	// swapLocked ends the move if it can. A row computed at stripe version
	// v is published — and the old extent freed, a no-op when its server
	// is dead — only if the stripe is still at v; a row another mover
	// re-homed or Release freed first needs no move at all. Caller holds
	// p.mu and ec.mu.
	swapLocked := func(v uint64) (dst addr.ServerID, done bool) {
		if b.released.Load() || st.parity[m] != old {
			p.freeBackingLocked(srv, off)
			return addr.NoServer, true
		}
		if st.version != v {
			return addr.NoServer, false
		}
		st.parity[m] = parityBlock{server: srv, offset: off}
		p.freeBackingLocked(old.server, old.offset)
		return srv, true
	}

	for attempt := 0; ; attempt++ {
		// After enough optimistic losses to a steady writer, freeze the
		// stripe for one bounded pass instead of retrying forever.
		freeze := attempt >= 8
		if freeze {
			p.mu.Lock()
		}
		b.ec.mu.Lock()
		v := st.version
		reads := 0
		var readErr error
		for j := 0; j < k; j++ {
			slIdx := st.firstIdx + uint64(j)
			if slIdx >= b.sliceCount() {
				clear(shards[j]) // virtual zero shard
				continue
			}
			back := p.lookupSlice(first + slIdx)
			if back == nil || p.isDead(back.server) {
				readErr = fmt.Errorf("%w: parity rebuild needs data slice %d", ErrServerDead, slIdx)
				break
			}
			if readErr = p.nodes[back.server].ReadAt(shards[j], back.offset); readErr != nil {
				break
			}
			reads++
		}
		if readErr != nil {
			b.ec.mu.Unlock()
			if freeze {
				p.mu.Unlock()
			}
			return abort(readErr)
		}
		if freeze {
			// Stripe frozen: compute, write, and swap under the locks.
			err := b.ec.rs.EncodeInto(shards, parityOut)
			if err == nil {
				err = p.nodes[srv].WriteAt(row, off)
			}
			dst := addr.NoServer
			if err == nil {
				dst, _ = swapLocked(v) // frozen: the version cannot have moved
			} else {
				p.freeBackingLocked(srv, off)
			}
			b.ec.mu.Unlock()
			p.mu.Unlock()
			return dst, err
		}
		b.ec.mu.Unlock()
		for i := 0; i < reads; i++ {
			p.fabricDelay()
		}
		if err := b.ec.rs.EncodeInto(shards, parityOut); err != nil {
			return abort(err)
		}
		if err := p.nodes[srv].WriteAt(row, off); err != nil {
			return abort(err)
		}
		p.mu.Lock()
		b.ec.mu.Lock()
		dst, done := swapLocked(v)
		b.ec.mu.Unlock()
		p.mu.Unlock()
		if done {
			return dst, nil
		}
		// The stripe changed under the optimistic snapshot: go again.
	}
}

// moveOneCommitted migrates slice s (backing back) to server to. The
// caller holds back's commit-window lock. The plan — validate, refuse
// to collocate, reserve the destination — runs here under p.mu; the
// copy and the rebind are movePrimaryCommitted's.
func (p *Pool) moveOneCommitted(sc telemetry.SpanContext, s uint64, back *sliceBacking, to addr.ServerID) error {
	p.mu.Lock()
	if p.lookupSlice(s) != back {
		p.mu.Unlock()
		return fmt.Errorf("%w: slice %d", errMoveStale, s)
	}
	if p.isDead(back.server) {
		p.mu.Unlock()
		return fmt.Errorf("%w: slice %d owner", ErrServerDead, s)
	}
	if p.isDead(to) {
		p.mu.Unlock()
		return fmt.Errorf("%w: server %d", ErrServerDead, to)
	}
	if back.server == to {
		p.mu.Unlock()
		return nil
	}
	if back.buf != nil {
		if avoid := p.protectionServersLocked(back.buf, s-back.buf.firstSlice()); avoid[to] {
			p.mu.Unlock()
			return fmt.Errorf("%w: slice %d to server %d", errCollocate, s, to)
		}
	}
	newOff, err := p.nodes[to].Alloc(SliceSize)
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("core: migrate slice %d to %d: %w", s, to, err)
	}
	return p.movePrimaryCommitted(sc, s, back, to, newOff)
}

// movePrimaryCommitted re-homes live slice s to the reserved extent
// (dstSrv, dstOff) — another server (migration, evacuation) or a lower
// offset on its own (compaction). The caller holds back's commit-window
// lock; a crash of either end, or a release, makes the move stale.
func (p *Pool) movePrimaryCommitted(sc telemetry.SpanContext, s uint64, back *sliceBacking, dstSrv addr.ServerID, dstOff int64) error {
	return p.moveBlockCommitted(sc, blockMove{
		s: s, back: back, dstSrv: dstSrv, dstOff: dstOff,
		src:     func() (addr.ServerID, int64, error) { return back.server, back.offset, nil },
		valid:   func() bool { return !p.isDead(back.server) && !p.isDead(dstSrv) },
		publish: func() { p.rebindLocked(s, back, dstSrv, dstOff) },
	})
}

// blockMove is one slice-sized copy for the two-phase mover: the bytes
// src locates move to the reserved extent (dstSrv, dstOff), and publish
// makes that extent the block's home.
type blockMove struct {
	// s is the slice whose stripe lock orders the block's writers — the
	// primary itself, or the slice a replica block protects — and back
	// its backing, whose commit-window lock the caller holds and whose
	// dirty interval the move arms.
	s      uint64
	back   *sliceBacking
	dstSrv addr.ServerID
	dstOff int64
	// src locates the bytes. It runs under s's stripe lock (either mode)
	// for every chunk and again for the dirty delta, so a source that
	// moves or dies mid-copy is followed, never read through stale.
	src func() (addr.ServerID, int64, error)
	// valid, when non-nil, is re-checked (same lock) wherever the mover
	// re-validates that back is still published; false makes the move
	// stale.
	valid func() bool
	// publish runs in the commit window — p.mu and s's stripe write lock
	// held, destination bytes complete — and also frees the old extent.
	// It cannot fail: past the delta copy a move is one record's store.
	publish func()
}

// moveBlockCommitted is the pool's one way to copy a slice-sized block
// to a new home. The caller holds mv.back's commit-window lock and has
// reserved the destination, which the mover frees on every failure:
//
//	track     stripe.Lock, O(1)  arm the dirty interval
//	pre-copy  chunked RLock      bulk copy; reads and writes proceed
//	commit    p.mu + stripe      copy the dirty delta, publish
//
// Each chunk is read under its own short stripe read-lock hold:
// concurrent reads share the lock, concurrent writes interleave between
// chunks and land in the dirty interval, so the stripe write-lock hold
// is O(dirty delta), not O(SliceSize + 2 RPCs). The backing is
// re-validated under every chunk's lock so a concurrent release or crash
// aborts the copy (errMoveStale) instead of reading through a freed
// (possibly re-allocated) extent.
//
//lmp:commitwindow
func (p *Pool) moveBlockCommitted(sc telemetry.SpanContext, mv blockMove) error {
	lock := p.stripeFor(mv.s)
	stale := fmt.Errorf("%w: slice %d", errMoveStale, mv.s)
	live := func() bool {
		return p.lookupSlice(mv.s) == mv.back && (mv.valid == nil || mv.valid())
	}
	scratch := getSliceBuf()
	defer putSliceBuf(scratch)
	// readSrc fills buf from offset lo of the block; the caller holds the
	// stripe lock.
	readSrc := func(buf []byte, lo int64) error {
		srcSrv, srcOff, err := mv.src()
		if err != nil {
			return err
		}
		return p.nodes[srcSrv].ReadAt(buf, srcOff+lo)
	}
	// commit is the commit window, and the single exit of an armed move:
	// handed a pre-copy failure it only disarms tracking and frees the
	// reservation.
	commit := func(err error) (int64, error) {
		p.mu.Lock()
		lock.Lock()
		var delta int64
		if err == nil && !live() {
			err = stale
		}
		if err == nil {
			if lo, hi := mv.back.dirtyRangeLocked(); hi > lo {
				delta = hi - lo
				buf := (*scratch)[:delta]
				if err = readSrc(buf, lo); err == nil {
					err = p.nodes[mv.dstSrv].WriteAt(buf, mv.dstOff+lo)
				}
			}
		}
		if err == nil {
			mv.publish()
		}
		mv.back.stopTrackingLocked()
		lock.Unlock()
		if err != nil {
			p.freeBackingLocked(mv.dstSrv, mv.dstOff)
			delta = 0
		} else {
			p.metrics.Counter("pool.migrations.commit_bytes").Add(uint64(delta))
		}
		p.mu.Unlock()
		return delta, err
	}

	lock.Lock()
	armed := live()
	if armed {
		mv.back.startTrackingLocked()
	}
	lock.Unlock()
	if !armed {
		_, err := commit(stale)
		return err
	}

	sp, traced := p.beginChild(sc, "pool.migrate.precopy")
	var err error
	for off := int64(0); off < SliceSize && err == nil; off += moveChunk {
		buf := (*scratch)[:min(moveChunk, SliceSize-off)]
		lock.RLock()
		if live() {
			err = readSrc(buf, off)
		} else {
			err = stale
		}
		lock.RUnlock()
		if err == nil {
			err = p.nodes[mv.dstSrv].WriteAt(buf, mv.dstOff+off)
		}
	}
	p.fabricDelay()
	if traced {
		p.endChild(&sp, int(SliceSize), err)
	}
	if err != nil {
		_, err = commit(err)
		return err
	}

	csp, ctraced := p.beginChild(sc, "pool.migrate.commit")
	delta, err := commit(nil)
	if ctraced {
		p.endChild(&csp, int(delta), err)
	}
	return err
}
