package daemon

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/core"
	"github.com/lmp-project/lmp/internal/rpc"
)

// PoolView is a logical pool over lmpd daemons: a core.Pool whose lending
// servers are the daemons, each reached through its Client (a
// core.Lender), and whose one in-process server, the compute server,
// lends nothing and issues every access — NewPhysical's shape, with the
// device split over the wire. It is the same pool as the in-process one,
// with its translation, stripe locks, protection and crash repair; only
// the lender differs.
type PoolView struct {
	pool    *core.Pool
	clients []*Client
	compute addr.ServerID
}

// NewPoolView builds a pool over the daemons, sizing each lending server
// with one Info call. The pool places by 2 MiB slice, striped over the
// daemons, so stripe places nothing: it is kept for callers written when
// the view dealt stripes of that size itself.
func NewPoolView(stripe int64, clients ...*Client) (*PoolView, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("daemon: pool view needs daemons")
	}
	cfg := core.Config{Placement: alloc.Striped}
	lenders := make([]core.Lender, len(clients))
	for i, c := range clients {
		info, err := c.Info()
		if err != nil {
			return nil, fmt.Errorf("daemon: sizing daemon %d: %w", i, err)
		}
		cfg.Servers = append(cfg.Servers, core.ServerConfig{Name: info.Name, Capacity: info.Capacity, SharedBytes: info.Shared})
		lenders[i] = c
	}
	cfg.Servers = append(cfg.Servers, core.ServerConfig{Name: "compute", Capacity: core.SliceSize})
	pool, err := core.NewLent(cfg, lenders...)
	if err != nil {
		return nil, err
	}
	return &PoolView{pool: pool, clients: clients, compute: addr.ServerID(len(clients))}, nil
}

// ViewBuffer is a buffer of a PoolView's pool, read and written from the
// compute server. It is safe for concurrent use.
type ViewBuffer struct {
	view *PoolView
	buf  *core.Buffer
}

// Alloc places n bytes, striped by slice over the daemons: one Alloc call
// per daemon the buffer lands on.
func (v *PoolView) Alloc(n int64) (*ViewBuffer, error) {
	b, err := v.pool.Alloc(n, v.compute)
	if err != nil {
		return nil, err
	}
	return &ViewBuffer{view: v, buf: b}, nil
}

// Size reports the buffer's byte size.
func (b *ViewBuffer) Size() int64 { return b.buf.Size() }

// Release frees the buffer's slices, one Free call per daemon. Every
// later access fails.
func (b *ViewBuffer) Release() error { return b.buf.Release() }

// window bounds an access of n bytes at off by the buffer.
func (b *ViewBuffer) window(off int64, n int) (addr.Logical, error) {
	if off < 0 || int64(n) > b.buf.Size()-off {
		return 0, fmt.Errorf("daemon: access of %d bytes at %d outside buffer of %d", n, off, b.buf.Size())
	}
	if b.buf.Released() {
		return 0, core.ErrReleased
	}
	return b.buf.Addr() + addr.Logical(off), nil
}

// WriteAt stores data at buffer offset off.
func (b *ViewBuffer) WriteAt(data []byte, off int64) error { return b.WriteAtCtx(nil, data, off) }

// WriteAtCtx is WriteAt under ctx: the pool's WriteCtx from the compute
// server, one lender call per slice the range touches, each bounded by
// ctx.
func (b *ViewBuffer) WriteAtCtx(ctx context.Context, data []byte, off int64) error {
	la, err := b.window(off, len(data))
	if err != nil {
		return err
	}
	return b.view.pool.WriteCtx(ctx, b.view.compute, la, data)
}

// ReadAt fills p from buffer offset off.
func (b *ViewBuffer) ReadAt(p []byte, off int64) error { return b.ReadAtCtx(nil, p, off) }

// ReadAtCtx is ReadAt under ctx, the pool's ReadCtx: each slice's reply
// lands in its piece of p as it comes off the wire.
func (b *ViewBuffer) ReadAtCtx(ctx context.Context, p []byte, off int64) error {
	la, err := b.window(off, len(p))
	if err != nil {
		return err
	}
	return b.view.pool.ReadCtx(ctx, b.view.compute, la, p)
}

// sumRun is a range of one daemon's lent memory that one sum kernel, or
// one read, covers.
type sumRun struct {
	daemon    int
	off, size int64
}

// runs gathers the buffer's bytes into ranges of lent memory: each
// slice's part of the buffer, where the pool's placement has it now,
// merged with the next one on the same daemon when their extents lie back
// to back, up to rpc.MaxPayload, the most one sum or one read reply may
// cover.
func (b *ViewBuffer) runs() ([]sumRun, error) {
	if b.buf.Released() {
		return nil, fmt.Errorf("daemon: sum of a released buffer: %w", core.ErrReleased)
	}
	var pieces []sumRun
	for at := int64(0); at < b.buf.Size(); at += core.SliceSize {
		loc, err := b.view.pool.Translate(b.buf.Addr() + addr.Logical(at))
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, sumRun{daemon: int(loc.Server), off: loc.Offset, size: min(core.SliceSize, b.buf.Size()-at)})
	}
	slices.SortFunc(pieces, func(x, y sumRun) int {
		if x.daemon != y.daemon {
			return x.daemon - y.daemon
		}
		return int(x.off - y.off)
	})
	var out []sumRun
	for _, p := range pieces {
		if n := len(out) - 1; n >= 0 && out[n].daemon == p.daemon && out[n].off+out[n].size == p.off && out[n].size+p.size <= rpc.MaxPayload {
			out[n].size += p.size
			continue
		}
		out = append(out, p)
	}
	return out, nil
}

// ShippedSum computes the sum of the buffer's little-endian uint64 words
// by shipping one kernel per run of back-to-back slices to its daemon —
// the §4.4 near-memory pattern in the live mode. The kernels are
// pipelined: every daemon is summing before the first partial result
// returns.
func (b *ViewBuffer) ShippedSum() (float64, error) {
	runs, err := b.runs()
	if err != nil {
		return 0, err
	}
	futures := make([]*rpc.Future, len(runs))
	for i, r := range runs {
		futures[i] = b.view.clients[r.daemon].SumAsync(nil, r.off, int(r.size))
	}
	var sum float64
	for _, f := range futures {
		resp, ferr := f.Wait()
		if ferr == nil && len(resp) != 8 {
			ferr = fmt.Errorf("daemon: sum reply of %d bytes, want 8", len(resp))
		}
		if ferr == nil {
			sum += math.Float64frombits(binary.BigEndian.Uint64(resp))
		} else if err == nil {
			err = ferr
		}
		f.Release()
	}
	if err != nil {
		return 0, err
	}
	return sum, nil
}

// PulledSum computes the same reduction, over the same runs, by pulling
// every byte to the client — the baseline shipped execution beats.
func (b *ViewBuffer) PulledSum() (float64, error) {
	runs, err := b.runs()
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, r := range runs {
		data, err := b.view.clients[r.daemon].Read(r.off, int(r.size))
		if err != nil {
			return 0, err
		}
		sum += sumWords(data)
	}
	return sum, nil
}
