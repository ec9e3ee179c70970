package daemon

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/lmp-project/lmp/internal/rpc"
)

// PoolView composes a set of daemons into one logical pool from a
// client's perspective: allocations are striped across the daemons'
// shared regions, reads and writes are routed by a client-side coarse
// map, and reductions are shipped to the owning daemons so only partial
// results travel.
type PoolView struct {
	clients []*Client
	stripe  int64

	mu   sync.Mutex
	next int
}

// NewPoolView builds a view over the daemons with the given stripe size.
func NewPoolView(stripe int64, clients ...*Client) (*PoolView, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("daemon: pool view needs daemons")
	}
	if stripe <= 0 {
		return nil, fmt.Errorf("daemon: stripe %d must be positive", stripe)
	}
	if stripe > maxStripe {
		return nil, fmt.Errorf("daemon: stripe %d exceeds the %d one chunk RPC can carry", stripe, maxStripe)
	}
	return &PoolView{clients: clients, stripe: stripe}, nil
}

// maxStripe is the largest stripe whose whole-chunk write still fits one
// frame: rpc.MaxPayload less the 8-byte write offset and the rpc layer's
// own request prefix (budget and trace, 24 bytes), rounded to a page.
const maxStripe = rpc.MaxPayload - 4096

// viewExtent is one daemon's part of a buffer: its stripes, back to back.
type viewExtent struct {
	daemon    int
	off, size int64
}

// ViewBuffer is a buffer striped across daemons. It is safe for
// concurrent use; Release takes the placement away under the buffer's
// lock.
type ViewBuffer struct {
	view *PoolView
	size int64

	mu sync.RWMutex
	// extents has one extent per daemon in the deal, in dealing order: stripe
	// k is k/len(extents) stripes into extents[k%len(extents)]. nil once released.
	extents []viewExtent
}

// Size reports the buffer's byte size.
func (b *ViewBuffer) Size() int64 { return b.size }

// Alloc stripes n bytes across the daemons, dealt round-robin from where
// the last deal stopped, and asks each daemon in the deal once, for one
// extent holding its stripes. The trade-off: a share needs contiguous
// free space on its daemon. A daemon that refuses leaves the deal, every
// extent granted is freed and the stripes are dealt again; Alloc fails,
// holding nothing, only when no daemon is left.
func (v *PoolView) Alloc(n int64) (*ViewBuffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("daemon: alloc of %d bytes", n)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	stripes := (n + v.stripe - 1) / v.stripe
	deal := make([]int, len(v.clients))
	for i := range deal {
		deal[i] = (v.next + i) % len(v.clients)
	}
	for {
		m := min(int64(len(deal)), stripes)
		extents := make([]viewExtent, 0, m)
		var err error
		for i := int64(0); i < m && err == nil; i++ {
			size := (stripes - i + m - 1) / m * v.stripe // stripes i, i+m, ...
			if i == (stripes-1)%m {
				size -= stripes*v.stripe - n
			}
			var off int64
			if off, err = v.clients[deal[i]].Alloc(size); err == nil {
				extents = append(extents, viewExtent{daemon: deal[i], off: off, size: size})
			}
		}
		if err == nil {
			v.next = int((int64(v.next) + stripes) % int64(len(v.clients)))
			return &ViewBuffer{view: v, size: n, extents: extents}, nil
		}
		_ = v.free(extents) // a failed free leaves its extent held, as in Release
		deal = slices.Delete(deal, len(extents), len(extents)+1)
		if len(deal) == 0 {
			return nil, fmt.Errorf("daemon: pool exhausted: no daemon holds its share of %d bytes: %w", n, err)
		}
	}
}

// free gives back each extent and reports the first error.
func (v *PoolView) free(extents []viewExtent) error {
	var firstErr error
	for _, e := range extents {
		if err := v.clients[e.daemon].Free(e.off); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Release frees every daemon's extent. Every later access fails.
func (b *ViewBuffer) Release() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	err := b.view.free(b.extents)
	b.extents = nil
	return err
}

// locate visits each stripe's part of [off, off+n): its daemon, where the
// part starts on it, the part's offset from off, and its length.
func (b *ViewBuffer) locate(off, n int64, visit func(c *Client, at, bufOff, length int64)) error {
	if off < 0 || n < 0 || n > b.size-off {
		return fmt.Errorf("daemon: access of %d bytes at %d outside buffer of %d", n, off, b.size)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.extents == nil {
		// The walk below would visit nothing and the access would report
		// success having moved no bytes.
		return fmt.Errorf("daemon: access of %d bytes at %d of a released buffer", n, off)
	}
	stripe, m := b.view.stripe, int64(len(b.extents))
	for pos := off; pos < off+n; {
		k := pos / stripe
		e := b.extents[k%m]
		length := min(stripe-pos%stripe, off+n-pos)
		visit(b.view.clients[e.daemon], e.off+k/m*stripe+pos%stripe, pos-off, length)
		pos += length
	}
	return nil
}

// stackChunks is how many chunk calls an access keeps on its stack; a
// wider access spills to the heap.
const stackChunks = 8

// WriteAt stores data at buffer offset off.
func (b *ViewBuffer) WriteAt(data []byte, off int64) error {
	return b.WriteAtCtx(nil, data, off)
}

// WriteAtCtx is WriteAt with cancellation. The per-chunk RPCs are issued
// as one pipelined burst — every chunk's write is in flight before the
// first response is awaited, so a striped write costs one round trip,
// not one per daemon — and the transport batches the small ones into
// shared frames. The first chunk error wins, after every in-flight call
// has resolved.
func (b *ViewBuffer) WriteAtCtx(ctx context.Context, data []byte, off int64) error {
	var stack [stackChunks]*rpc.Future
	calls := stack[:0]
	err := b.locate(off, int64(len(data)), func(c *Client, at, bufOff, length int64) {
		calls = append(calls, c.WriteAsync(ctx, at, data[bufOff:bufOff+length]))
	})
	return waitChunks(ctx, calls, err)
}

// ReadAt fills p from buffer offset off.
func (b *ViewBuffer) ReadAt(p []byte, off int64) error {
	return b.ReadAtCtx(nil, p, off)
}

// ReadAtCtx is ReadAt with cancellation, with WriteAtCtx's pipelined
// semantics: all chunk reads are in flight at once, and each chunk's
// reply lands in its piece of p as it comes off the wire.
func (b *ViewBuffer) ReadAtCtx(ctx context.Context, p []byte, off int64) error {
	var stack [stackChunks]*rpc.Future
	calls := stack[:0]
	err := b.locate(off, int64(len(p)), func(c *Client, at, bufOff, length int64) {
		calls = append(calls, c.ReadAsync(ctx, at, p[bufOff:bufOff+length]))
	})
	return waitChunks(ctx, calls, err)
}

// waitChunks waits for every chunk call of an access and gives each
// future back, returning err or else the first chunk error.
func waitChunks(ctx context.Context, calls []*rpc.Future, err error) error {
	for _, f := range calls {
		if _, cerr := f.WaitCtx(ctx); cerr != nil && err == nil {
			err = cerr
		}
		f.Release()
	}
	return err
}

// pieces splits each daemon's extent into ranges of at most
// rpc.MaxPayload bytes, the most one sum or one read reply may cover.
func (b *ViewBuffer) pieces() ([]viewExtent, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.extents == nil {
		return nil, fmt.Errorf("daemon: sum of a released buffer")
	}
	var out []viewExtent
	for _, e := range b.extents {
		for at := int64(0); at < e.size; at += rpc.MaxPayload {
			out = append(out, viewExtent{daemon: e.daemon, off: e.off + at, size: min(rpc.MaxPayload, e.size-at)})
		}
	}
	return out, nil
}

// ShippedSum computes the sum of the buffer's little-endian uint64 words
// by shipping one kernel per piece to the owning daemons — the §4.4
// near-memory pattern in the live mode. The kernels are pipelined: every
// daemon is summing before the first partial result returns.
func (b *ViewBuffer) ShippedSum() (float64, error) {
	pieces, err := b.pieces()
	if err != nil {
		return 0, err
	}
	futures := make([]*rpc.Future, len(pieces))
	for i, p := range pieces {
		futures[i] = b.view.clients[p.daemon].SumAsync(nil, p.off, int(p.size))
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

// PulledSum computes the same reduction, over the same pieces, by pulling
// every byte to the client — the baseline shipped execution beats.
func (b *ViewBuffer) PulledSum() (float64, error) {
	pieces, err := b.pieces()
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, p := range pieces {
		data, err := b.view.clients[p.daemon].Read(p.off, int(p.size))
		if err != nil {
			return 0, err
		}
		sum += sumWords(data)
	}
	return sum, nil
}
