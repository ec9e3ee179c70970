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
// control plane for re-homing slice backings. Both repair (crashed
// owner) and migration (locality balancing, administrative moves) run
// as two-phase copies that hold locks only for short commit windows:
//
//	plan      p.mu          validate, reserve the destination extent
//	pre-copy  chunked RLock bulk copy while foreground traffic proceeds
//	commit    p.mu + stripe re-validate, copy the dirty delta, rebind
//
// Every mover of a slice serializes on the slice's commit-window lock
// (sliceBacking.commit), held across all three phases. Because all
// movers hold it, a commit holder may read the backing fields it is
// about to re-validate without racing another mover; foreground writers
// to a dead-owned slice also park on it (recoverSliceInner), which is
// what freezes a crashed slice's replica bytes during repair.
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
	var prim []repairItem
	t := p.table.Load()
	for sl := range t.entries {
		back := t.entries[sl].Load()
		if back == nil || back.server != s {
			continue
		}
		prim = append(prim, repairItem{slice: uint64(sl), back: back})
	}
	var prot []protItem
	for _, b := range p.buffers {
		for c := range b.copies {
			for i := range b.copies[c] {
				if b.copies[c][i].Server == s {
					prot = append(prot, protItem{kind: protReplica, b: b, c: c, idx: uint64(i)})
				}
			}
		}
		if b.ec == nil {
			continue
		}
		for si := range b.ec.stripes {
			for m := range b.ec.stripes[si].parity {
				if b.ec.stripes[si].parity[m].server == s {
					prot = append(prot, protItem{kind: protParity, b: b, si: si, m: m})
				}
			}
		}
	}
	p.mu.Unlock()

	// p.buffers is a map: impose a stable order so serial repairs (and
	// their spans and placement decisions) replay deterministically.
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

	workers := p.repairWorkers()
	recovered, firstErr = p.runRepairPhase(len(prim), workers, func(i int) error {
		return p.repairPrimary(sc, prim[i])
	})
	// Sync point: every primary is live before protection rebuild reads
	// data shards.
	moved, protErr := p.runRepairPhase(len(prot), workers, func(i int) error {
		return p.repairProtection(sc, s, prot[i])
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
func (p *Pool) repairProtection(sc telemetry.SpanContext, deadSrv addr.ServerID, it protItem) error {
	sp, traced := p.beginChild(sc, "pool.repair.protection")
	var err error
	if it.kind == protReplica {
		err = p.repairReplica(deadSrv, it.b, it.c, it.idx)
	} else {
		err = p.repairParity(deadSrv, it.b, it.si, it.m)
	}
	if traced {
		p.endChild(&sp, int(SliceSize), err)
	}
	return err
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
	err = p.rebindLocked(s, back, dstSrv, dstOff)
	lock.Unlock()
	if err != nil {
		p.freeBackingLocked(dstSrv, dstOff)
		p.mu.Unlock()
		return err
	}
	p.metrics.Counter("pool.recoveries").Inc()
	p.mu.Unlock()
	return nil
}

// rebindLocked points slice s at (dstSrv, dstOff): both translation
// steps, the backing record, the old extent's free (skipped when the
// old owner is dead — its memory is gone), and the new owner's cache
// invalidation. The caller holds p.mu and the slice's stripe lock in
// write mode. For erasure-coded buffers the swap additionally holds the
// buffer's EC lock: reconstruction snapshots sibling backing fields and
// bytes under ec.mu alone, so field mutation and the extent free must
// be ordered against it.
func (p *Pool) rebindLocked(s uint64, back *sliceBacking, dstSrv addr.ServerID, dstOff int64) error {
	var ecmu *sync.Mutex
	if back.buf != nil && back.buf.ec != nil {
		ecmu = &back.buf.ec.mu
		ecmu.Lock()
	}
	oldSrv, oldOff := back.server, back.offset
	p.locals[dstSrv].MapSlice(s, dstOff)
	if err := p.global.Bind(addr.Range{Start: addr.SliceBase(s), Size: SliceSize}, dstSrv); err != nil {
		p.locals[dstSrv].UnmapSlice(s)
		if ecmu != nil {
			ecmu.Unlock()
		}
		return err
	}
	p.locals[oldSrv].UnmapSlice(s)
	back.server = dstSrv
	back.offset = dstOff
	p.freeBackingLocked(oldSrv, oldOff)
	if ecmu != nil {
		ecmu.Unlock()
	}
	if p.caches != nil {
		// The slice is local to its new owner now; drop the owner's cached
		// copies so its reads hit backing DRAM directly (local pages are
		// never cached). Other nodes' copies stay valid — the bytes did
		// not change, only their home.
		base := uint64(addr.SliceBase(s))
		p.caches[dstSrv].InvalidateRange(base>>p.pageShift, uint64(SliceSize)>>p.pageShift)
	}
	return nil
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

// repairReplica re-homes replica copy c of buffer slice idx from a live
// source. It holds the protected slice's commit lock so no other mover
// re-homes the primary mid-copy; the primary stays fully writable — the
// dirty interval tracks writes during the bulk copy and the commit
// window re-copies just that delta.
//
//lmp:commitwindow
func (p *Pool) repairReplica(deadSrv addr.ServerID, b *Buffer, c int, idx uint64) error {
	sl := b.firstSlice() + idx
	back := p.lookupSlice(sl)
	if back == nil {
		return nil // buffer released since the snapshot
	}
	back.commit.Lock()
	defer back.commit.Unlock()

	p.mu.Lock()
	if b.released.Load() || p.lookupSlice(sl) != back ||
		b.copies[c][idx].Server != deadSrv || !p.isDead(deadSrv) {
		p.mu.Unlock()
		return nil
	}
	avoid := p.protectionServersLocked(b, idx)
	avoid[back.server] = true
	srv, off, err := p.allocAvoiding(avoid)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()

	lock := p.stripeFor(sl)
	lock.Lock()
	if p.lookupSlice(sl) != back {
		lock.Unlock()
		p.mu.Lock()
		p.freeBackingLocked(srv, off)
		p.mu.Unlock()
		return nil
	}
	back.startTrackingLocked()
	lock.Unlock()

	scratch := getSliceBuf()
	defer putSliceBuf(scratch)
	copyErr := func() error {
		buf := (*scratch)[:moveChunk]
		for off2 := int64(0); off2 < SliceSize; off2 += moveChunk {
			n := int64(moveChunk)
			if SliceSize-off2 < n {
				n = SliceSize - off2
			}
			lock.RLock()
			if p.lookupSlice(sl) != back {
				lock.RUnlock()
				return fmt.Errorf("%w: slice %d", errMoveStale, sl)
			}
			srcSrv, srcOff, ok := p.replicaSourceLocked(b, back, c, idx)
			if !ok {
				lock.RUnlock()
				return &failure.MemoryException{Addr: addr.SliceBase(sl), Server: deadSrv}
			}
			err := p.nodes[srcSrv].ReadAt(buf[:n], srcOff+off2)
			lock.RUnlock()
			if err != nil {
				return err
			}
			if err := p.nodes[srv].WriteAt(buf[:n], off+off2); err != nil {
				return err
			}
		}
		return nil
	}()
	p.fabricDelay()

	abort := func(err error) error {
		lock.Lock()
		back.stopTrackingLocked()
		lock.Unlock()
		p.mu.Lock()
		p.freeBackingLocked(srv, off)
		p.mu.Unlock()
		return err
	}
	if copyErr != nil {
		if errors.Is(copyErr, errMoveStale) {
			return abort(nil) // buffer released mid-copy: nothing to re-home
		}
		return abort(copyErr)
	}

	p.mu.Lock()
	lock.Lock()
	if b.released.Load() || p.lookupSlice(sl) != back || b.copies[c][idx].Server != deadSrv {
		back.stopTrackingLocked()
		lock.Unlock()
		p.freeBackingLocked(srv, off)
		p.mu.Unlock()
		return nil
	}
	if lo, hi := back.dirtyRangeLocked(); hi > lo {
		delta := (*scratch)[:hi-lo]
		srcSrv, srcOff, ok := p.replicaSourceLocked(b, back, c, idx)
		if !ok {
			err = &failure.MemoryException{Addr: addr.SliceBase(sl), Server: deadSrv}
		} else if err = p.nodes[srcSrv].ReadAt(delta, srcOff+lo); err == nil {
			err = p.nodes[srv].WriteAt(delta, off+lo)
		}
		if err != nil {
			back.stopTrackingLocked()
			lock.Unlock()
			p.freeBackingLocked(srv, off)
			p.mu.Unlock()
			return err
		}
		p.metrics.Counter("pool.migrations.commit_bytes").Add(uint64(hi - lo))
	}
	b.copies[c][idx] = alloc.Chunk{Server: srv, Offset: off, Size: SliceSize}
	back.stopTrackingLocked()
	lock.Unlock()
	p.mu.Unlock()
	return nil
}

// repairParity recomputes parity row m of EC stripe si onto a live
// server. It runs in repair phase B, after every data shard is live.
// The shard snapshot and the stripe's version are read under ec.mu; the
// O(K·SliceSize) row compute and the bulk write run unlocked; the swap
// re-checks the version, so a foreground write that changed the stripe
// between snapshot and swap forces a re-read instead of committing a
// stale row. After repeated collisions it falls back to computing the
// row with the stripe frozen, which is the pre-engine behavior.
func (p *Pool) repairParity(deadSrv addr.ServerID, b *Buffer, si, m int) error {
	st := &b.ec.stripes[si]
	first := b.firstSlice()
	k := b.prot.K

	p.mu.Lock()
	if b.released.Load() || st.parity[m].server != deadSrv || !p.isDead(deadSrv) {
		p.mu.Unlock()
		return nil
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
	srv, off, err := p.allocAvoiding(avoid)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()

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

	abort := func(err error) error {
		p.mu.Lock()
		p.freeBackingLocked(srv, off)
		p.mu.Unlock()
		return err
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
			if err == nil && st.parity[m].server == deadSrv {
				st.parity[m] = parityBlock{server: srv, offset: off}
				b.ec.mu.Unlock()
				p.mu.Unlock()
				return nil
			}
			b.ec.mu.Unlock()
			p.freeBackingLocked(srv, off)
			p.mu.Unlock()
			return err
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
		if st.parity[m].server != deadSrv {
			b.ec.mu.Unlock()
			p.freeBackingLocked(srv, off)
			p.mu.Unlock()
			return nil // another mover already re-homed the row
		}
		if st.version == v {
			st.parity[m] = parityBlock{server: srv, offset: off}
			b.ec.mu.Unlock()
			p.mu.Unlock()
			return nil
		}
		b.ec.mu.Unlock()
		p.mu.Unlock()
		// The stripe changed under the optimistic snapshot: go again.
	}
}

// moveOneCommitted migrates slice s (backing back) to server to. The
// caller holds back's commit-window lock. Two-phase protocol:
//
//	plan      p.mu               validate, collocation check, reserve dst
//	track     stripe.Lock, O(1)  arm the dirty interval
//	pre-copy  chunked RLock      bulk copy; reads and writes proceed
//	commit    p.mu + stripe      copy the dirty delta, rebind, free old
//
// so the stripe write-lock hold shrinks from O(SliceSize + 2 RPCs) to
// O(dirty delta).
//
//lmp:commitwindow
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
	newOff, err := p.regions[to].Alloc(SliceSize)
	if err != nil {
		p.mu.Unlock()
		return fmt.Errorf("core: migrate slice %d to %d: %w", s, to, err)
	}
	p.mu.Unlock()

	lock := p.stripeFor(s)
	lock.Lock()
	if p.lookupSlice(s) != back || p.isDead(back.server) {
		lock.Unlock()
		p.mu.Lock()
		p.freeBackingLocked(to, newOff)
		p.mu.Unlock()
		return fmt.Errorf("%w: slice %d", errMoveStale, s)
	}
	back.startTrackingLocked()
	lock.Unlock()

	sp, traced := p.beginChild(sc, "pool.migrate.precopy")
	err = p.preCopySlice(back, s, to, newOff)
	p.fabricDelay()
	if traced {
		p.endChild(&sp, int(SliceSize), err)
	}
	if err != nil {
		lock.Lock()
		back.stopTrackingLocked()
		lock.Unlock()
		p.mu.Lock()
		p.freeBackingLocked(to, newOff)
		p.mu.Unlock()
		return err
	}

	csp, ctraced := p.beginChild(sc, "pool.migrate.commit")
	delta, err := p.commitMove(s, back, to, newOff)
	if ctraced {
		p.endChild(&csp, int(delta), err)
	}
	return err
}

// preCopySlice bulk-copies slice s to (to, newOff) in chunks, each read
// under its own short stripe read-lock hold: concurrent reads share the
// lock, concurrent writes interleave between chunks and land in the
// dirty interval. The backing is re-validated under every chunk's lock
// so a concurrent release or crash aborts the copy instead of reading
// through a freed (possibly re-allocated) extent.
func (p *Pool) preCopySlice(back *sliceBacking, s uint64, to addr.ServerID, newOff int64) error {
	lock := p.stripeFor(s)
	scratch := getSliceBuf()
	defer putSliceBuf(scratch)
	buf := (*scratch)[:moveChunk]
	for off := int64(0); off < SliceSize; off += moveChunk {
		n := int64(moveChunk)
		if SliceSize-off < n {
			n = SliceSize - off
		}
		lock.RLock()
		if p.lookupSlice(s) != back || p.isDead(back.server) {
			lock.RUnlock()
			return fmt.Errorf("%w: slice %d", errMoveStale, s)
		}
		err := p.nodes[back.server].ReadAt(buf[:n], back.offset+off)
		lock.RUnlock()
		if err != nil {
			return err
		}
		if err := p.nodes[to].WriteAt(buf[:n], newOff+off); err != nil {
			return err
		}
	}
	return nil
}

// commitMove is the migration commit window: re-validate, copy the
// dirty delta, rebind, free the old extent. Returns the delta size.
//
//lmp:commitwindow
func (p *Pool) commitMove(s uint64, back *sliceBacking, to addr.ServerID, newOff int64) (int64, error) {
	lock := p.stripeFor(s)
	scratch := getSliceBuf()
	defer putSliceBuf(scratch)
	p.mu.Lock()
	lock.Lock()
	abort := func(err error) (int64, error) {
		back.stopTrackingLocked()
		lock.Unlock()
		p.freeBackingLocked(to, newOff)
		p.mu.Unlock()
		return 0, err
	}
	if p.lookupSlice(s) != back || p.isDead(back.server) || p.isDead(to) {
		return abort(fmt.Errorf("%w: slice %d", errMoveStale, s))
	}
	lo, hi := back.dirtyRangeLocked()
	var delta int64
	if hi > lo {
		delta = hi - lo
		buf := (*scratch)[:delta]
		if err := p.nodes[back.server].ReadAt(buf, back.offset+lo); err != nil {
			return abort(err)
		}
		if err := p.nodes[to].WriteAt(buf, newOff+lo); err != nil {
			return abort(err)
		}
	}
	if err := p.rebindLocked(s, back, to, newOff); err != nil {
		return abort(err)
	}
	back.stopTrackingLocked()
	lock.Unlock()
	p.metrics.Counter("pool.migrations.commit_bytes").Add(uint64(delta))
	p.mu.Unlock()
	return delta, nil
}
