package daemon

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
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

// ViewChunk locates one striped piece of a distributed buffer.
type ViewChunk struct {
	Daemon int
	Offset int64
	Size   int64
}

// ViewBuffer is a buffer striped across daemons. It is safe for
// concurrent use; Release takes the placement away under the buffer's
// lock.
type ViewBuffer struct {
	view *PoolView
	size int64

	mu     sync.RWMutex
	chunks []ViewChunk // nil once released
}

// Size reports the buffer's byte size.
func (b *ViewBuffer) Size() int64 { return b.size }

// Chunks returns a copy of the placement (for inspection).
func (b *ViewBuffer) Chunks() []ViewChunk {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]ViewChunk, len(b.chunks))
	copy(out, b.chunks)
	return out
}

// Alloc stripes n bytes across the daemons. On failure all partial
// reservations are rolled back.
func (v *PoolView) Alloc(n int64) (*ViewBuffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("daemon: alloc of %d bytes", n)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	b := &ViewBuffer{view: v, size: n}
	remaining := n
	failures := 0
	for remaining > 0 {
		d := v.next
		v.next = (v.next + 1) % len(v.clients)
		sz := v.stripe
		if remaining < sz {
			sz = remaining
		}
		off, err := v.clients[d].Alloc(sz)
		if err != nil {
			failures++
			if failures >= len(v.clients) {
				v.rollback(b.chunks)
				return nil, fmt.Errorf("daemon: pool exhausted with %d bytes unplaced: %w", remaining, err)
			}
			continue
		}
		failures = 0
		b.chunks = append(b.chunks, ViewChunk{Daemon: d, Offset: off, Size: sz})
		remaining -= sz
	}
	return b, nil
}

func (v *PoolView) rollback(chunks []ViewChunk) {
	for _, c := range chunks {
		_ = v.clients[c.Daemon].Free(c.Offset)
	}
}

// Release frees every stripe. Every later access fails.
func (b *ViewBuffer) Release() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var firstErr error
	for _, c := range b.chunks {
		if err := b.view.clients[c.Daemon].Free(c.Offset); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b.chunks = nil
	return firstErr
}

// locate walks the chunks overlapping [off, off+n).
func (b *ViewBuffer) locate(off, n int64, visit func(c ViewChunk, chunkOff, bufOff, length int64) error) error {
	if off < 0 || n < 0 || n > b.size-off {
		return fmt.Errorf("daemon: access of %d bytes at %d outside buffer of %d", n, off, b.size)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.chunks == nil {
		// The walk below would visit nothing and the access would report
		// success having moved no bytes.
		return fmt.Errorf("daemon: access of %d bytes at %d of a released buffer", n, off)
	}
	var pos int64
	for _, c := range b.chunks {
		if n == 0 {
			break
		}
		end := pos + c.Size
		if off < end && pos < off+n {
			lo := off
			if pos > lo {
				lo = pos
			}
			hi := off + n
			if end < hi {
				hi = end
			}
			if err := visit(c, lo-pos, lo-off, hi-lo); err != nil {
				return err
			}
		}
		pos = end
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
	err := b.locate(off, int64(len(data)), func(c ViewChunk, chunkOff, bufOff, length int64) error {
		calls = append(calls, b.view.clients[c.Daemon].WriteAsync(ctx, c.Offset+chunkOff, data[bufOff:bufOff+length]))
		return nil
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
	err := b.locate(off, int64(len(p)), func(c ViewChunk, chunkOff, bufOff, length int64) error {
		calls = append(calls, b.view.clients[c.Daemon].ReadAsync(ctx, c.Offset+chunkOff, p[bufOff:bufOff+length]))
		return nil
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

// ShippedSum computes the sum of the buffer's little-endian uint64 words
// by shipping the kernel to every owning daemon in parallel — the §4.4
// near-memory pattern in the live mode. The kernels are pipelined: every
// daemon is summing before the first partial result returns.
func (b *ViewBuffer) ShippedSum() (float64, error) {
	chunks := b.Chunks()
	futures := make([]*rpc.Future, len(chunks))
	for i, c := range chunks {
		futures[i] = b.view.clients[c.Daemon].SumAsync(nil, c.Offset, int(c.Size))
	}
	var sum float64
	var firstErr error
	for _, f := range futures {
		resp, err := f.Wait()
		switch {
		case err == nil && len(resp) < 8:
			err = fmt.Errorf("daemon: short sum response")
		case err == nil:
			sum += math.Float64frombits(binary.BigEndian.Uint64(resp))
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		f.Release()
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return sum, nil
}

// PulledSum computes the same reduction by pulling every byte to the
// client — the baseline shipped execution beats.
func (b *ViewBuffer) PulledSum() (float64, error) {
	var sum float64
	for _, c := range b.Chunks() {
		data, err := b.view.clients[c.Daemon].Read(c.Offset, int(c.Size))
		if err != nil {
			return 0, err
		}
		i := 0
		for ; i+8 <= len(data); i += 8 {
			var w uint64
			for k := 0; k < 8; k++ {
				w |= uint64(data[i+k]) << (8 * k)
			}
			sum += float64(w)
		}
		for ; i < len(data); i++ {
			sum += float64(data[i])
		}
	}
	return sum, nil
}
