package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// Vec is one element of a vectored access: a logical address and the
// bytes to read into or write from it.
type Vec struct {
	Addr addr.Logical
	Data []byte
}

// ctxErr reports a cancelled or expired context as a pool access error
// (wrapping context.Canceled / context.DeadlineExceeded for errors.Is).
// An expired deadline — the caller's own or one materialized from
// Config.Tail.OpBudget by withBudget — additionally wraps
// ErrDeadlineExceeded, so budget exhaustion classifies the same way in
// the in-process and live modes. A nil context never fails.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			return fmt.Errorf("core: access deadline passed: %w: %w", ErrDeadlineExceeded, err)
		}
		return fmt.Errorf("core: access cancelled: %w", err)
	}
	return nil
}

// ReadCtx is Read with cancellation: the context is checked between slice
// segments, so a cancelled context stops a large multi-slice read part
// way. The error wraps ctx.Err() on cancellation; the rest of the contract
// matches Read.
func (p *Pool) ReadCtx(ctx context.Context, from addr.ServerID, la addr.Logical, buf []byte) error {
	return p.access(ctx, from, trRead, []Vec{{Addr: la, Data: buf}})
}

// WriteCtx is Write with cancellation, checked between slice segments. A
// write cancelled between segments leaves the earlier segments written
// (pool writes are not transactional).
func (p *Pool) WriteCtx(ctx context.Context, from addr.ServerID, la addr.Logical, data []byte) error {
	return p.access(ctx, from, trWrite, []Vec{{Addr: la, Data: data}})
}

// ReadV performs a vectored read: every element of vecs is filled as by
// Read(from, v.Addr, v.Data), but under one lock acquisition. All
// touched stripes are locked in canonical (ascending) order and all
// addresses are resolved before any byte moves, so a ReadV fails on an
// unmapped or released range — or a degraded owner with no replica to
// shed to — without partial effects, and physically contiguous segments
// on one server coalesce into a single access.
func (p *Pool) ReadV(from addr.ServerID, vecs []Vec) error {
	return p.access(nil, from, trReadV, vecs)
}

// WriteV performs a vectored write with the same locking, resolution,
// and coalescing as ReadV. Because all stripes are held in write mode
// for the whole operation, a WriteV is atomic with respect to
// concurrent Read/ReadV traffic on the same slices.
func (p *Pool) WriteV(from addr.ServerID, vecs []Vec) error {
	return p.access(nil, from, trWriteV, vecs)
}

// ReadVCtx is ReadV with cancellation, checked between coalesced runs.
func (p *Pool) ReadVCtx(ctx context.Context, from addr.ServerID, vecs []Vec) error {
	return p.access(ctx, from, trReadV, vecs)
}

// WriteVCtx is WriteV with cancellation, checked between coalesced runs.
func (p *Pool) WriteVCtx(ctx context.Context, from addr.ServerID, vecs []Vec) error {
	return p.access(ctx, from, trWriteV, vecs)
}

// vecSeg is one intra-slice piece of a vectored operation. vec indexes
// the operation's vectors rather than pointing into them, so the pooled
// scratch never holds the caller's []Vec and a one-element vector built by
// a single-address entry point stays on its stack.
type vecSeg struct {
	s        uint64
	sliceOff int64
	vec      int
	bufOff   int
	data     []byte
}

// vecState is the reusable scratch of one vectored operation; pooling it
// keeps ReadV/WriteV allocation-free in steady state. backs and srcs are
// the resolve pass's verdict per segment; feeds holds one breaker-feed
// record per backing I/O of the attempt, recorded after the unlock.
type vecState struct {
	segs  []vecSeg
	seen  []bool
	order []uint64
	backs []*sliceBacking
	srcs  []blockRef
	feeds []tailAccess
}

var vecScratch = sync.Pool{New: func() any { return new(vecState) }}

// vectored runs a vectored operation. flush marks a write-combiner flush
// batch: its bytes were already made coherent (invalidations happened
// when each write was buffered) and must not re-trigger a flush.
func (p *Pool) vectored(ctx context.Context, sc telemetry.SpanContext, from addr.ServerID, vecs []Vec, write, flush bool) error {
	if write && !flush && p.wc != nil {
		// A direct vectored write must not leave older buffered writes
		// shadowing its bytes.
		for i := range vecs {
			if len(vecs[i].Data) > 0 && p.wc.PendingInRange(uint64(vecs[i].Addr), len(vecs[i].Data)) {
				if err := p.flushWC(); err != nil {
					return err
				}
				break
			}
		}
	}
	st := vecScratch.Get().(*vecState)
	defer func() {
		// Drop retained pointers before pooling so a parked scratch does
		// not pin buffers or backings alive.
		clear(st.segs)
		clear(st.backs)
		st.segs, st.order, st.backs, st.srcs = st.segs[:0], st.order[:0], st.backs[:0], st.srcs[:0]
		vecScratch.Put(st)
	}()
	for i := range vecs {
		v := &vecs[i]
		for done := 0; done < len(v.Data); {
			s, sliceOff, n := sliceSegment(v.Addr, len(v.Data), done)
			st.segs = append(st.segs, vecSeg{s: s, sliceOff: sliceOff, vec: i, bufOff: done, data: v.Data[done : done+n]})
			done += n
		}
	}
	if len(st.segs) == 0 {
		return nil
	}
	// slices.SortFunc, not sort.Slice: the latter allocates (reflect
	// swapper) on every call, and this path must stay allocation-free.
	slices.SortFunc(st.segs, func(a, b vecSeg) int {
		if a.s != b.s {
			return cmp.Compare(a.s, b.s)
		}
		return cmp.Compare(a.sliceOff, b.sliceOff)
	})
	// Bound retries generously: recovery repairs one slice at a time, and
	// a crashed server can own every slice the operation touches.
	for attempt := 0; ; attempt++ {
		status, failSlice, err := p.vectoredOnce(ctx, sc, from, vecs, st, write, flush)
		for i := range st.feeds {
			p.feedBreaker(&st.feeds[i])
		}
		clear(st.feeds) // drops the recorded errors with the records
		st.feeds = st.feeds[:0]
		if retry, err := p.settle(ctx, sc, status, failSlice, err, attempt, len(st.segs)+maxRecoverAttempts); !retry {
			return err
		}
	}
}

// vectoredOnce is one locked attempt at a vectored operation. Stripe
// locks are acquired in ascending stripe order — a canonical global
// order, so concurrent vectored operations cannot deadlock against each
// other (single-address operations hold one stripe and cannot be part of
// a cycle) — and all released through a single deferred unlock.
func (p *Pool) vectoredOnce(ctx context.Context, sc telemetry.SpanContext, from addr.ServerID, vecs []Vec, st *vecState, write, flush bool) (accessStatus, uint64, error) {
	segs := st.segs
	if len(st.seen) < len(p.stripes) {
		st.seen = make([]bool, len(p.stripes))
	}
	seen, order := st.seen, st.order[:0]
	for _, sg := range segs {
		idx := sg.s & p.stripeMask
		if !seen[idx] {
			seen[idx] = true
			order = append(order, idx)
		}
	}
	st.order = order
	// seen persists across pooled uses: undo exactly the bits set above.
	defer func() {
		for _, idx := range order {
			seen[idx] = false
		}
	}()
	slices.Sort(order)
	for _, idx := range order {
		if write {
			p.stripes[idx].Lock()
		} else {
			p.stripes[idx].RLock()
		}
	}
	defer func() {
		for i := len(order) - 1; i >= 0; i-- {
			if write {
				p.stripes[order[i]].Unlock()
			} else {
				p.stripes[order[i]].RUnlock()
			}
		}
	}()

	// Resolve every address — and, for a read, where its bytes come from —
	// before moving any byte: a vectored op with a bad address or a
	// degraded, replica-less owner fails without partial effects.
	backs, srcs := st.backs[:0], st.srcs[:0]
	for _, sg := range segs {
		back, src, status := p.resolveLocked(sg.s, !write)
		if status != accessOK {
			return status, sg.s, nil
		}
		backs, srcs = append(backs, back), append(srcs, src)
	}
	st.backs, st.srcs = backs, srcs

	for i := 0; i < len(segs); {
		if err := ctxErr(ctx); err != nil {
			return accessFailed, 0, err
		}
		back, src, sg := backs[i], srcs[i], segs[i]
		// Protected writes go through the per-slice protection machinery
		// one segment at a time; everything else extends the run while the
		// next segment continues this one: same block source, same
		// source/destination vector, and contiguous both logically (buffer
		// offsets) and physically (node offsets).
		protected := write && back.buf != nil && back.buf.prot.Scheme != failure.None
		j := i + 1
		for ; !protected && j < len(segs); j++ {
			prev, next := segs[j-1], segs[j]
			if srcs[j].server != src.server || srcs[j].shed != src.shed || next.vec != sg.vec {
				break
			}
			if write && backs[j].buf != nil && backs[j].buf.prot.Scheme != failure.None {
				break
			}
			if next.bufOff != prev.bufOff+len(prev.data) {
				break
			}
			if srcs[j].offset+next.sliceOff != srcs[j-1].offset+prev.sliceOff+int64(len(prev.data)) {
				break
			}
		}
		last := segs[j-1]
		data := vecs[sg.vec].Data[sg.bufOff : last.bufOff+len(last.data)]
		runLa := uint64(addr.SliceBase(sg.s)) + uint64(sg.sliceOff)
		node, offset := p.nodes[src.server], src.offset+sg.sliceOff
		var ta *tailAccess
		if p.tail.breakers != nil {
			st.feeds = append(st.feeds, tailAccess{})
			ta = &st.feeds[len(st.feeds)-1]
			p.startIO(ta, src.server)
		}
		var err error
		switch {
		case protected:
			err = p.writeSliceLocked(ctx, back, node, sg.s, sg.sliceOff, offset, data)
		case write:
			// Raw coalesced writes bypass writeSliceLocked, so any move in
			// its pre-copy phase must learn about them here: the dirty
			// interval is per-slice, and this run may span several.
			for k := i; k < j; k++ {
				backs[k].markDirtyLocked(segs[k].sliceOff, int64(len(segs[k].data)))
			}
			err = node.WriteAt(ctx, data, offset)
		default:
			err = p.readLocked(ctx, sc, src, runLa, sg.sliceOff, data)
		}
		if ta != nil {
			p.endIO(ta, err)
		}
		if err != nil {
			return accessFailed, 0, err
		}
		// A flush batch was made coherent and accounted (per-slice counts,
		// metrics) when each write was buffered; doing either again here
		// would double-count one logical write. Otherwise: one fabric
		// access for the whole run, attributed to each touched slice.
		if !flush {
			if write && p.caches != nil {
				p.applyWriteCoherenceLocked(sc, from, runLa, data)
			}
			p.accountAccess(from, src.server, sg.s, write, len(data), backs[i:j]...)
		}
		i = j
	}
	return accessOK, 0, nil
}
