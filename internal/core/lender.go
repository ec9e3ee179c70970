package core

import (
	"context"
	"errors"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/memnode"
	"github.com/lmp-project/lmp/internal/rpc"
)

// Lender is the one way the pool reaches a server's memory: the shared
// region's bytes, its extent allocator and its private/shared boundary
// (§3: every server lends part of its DRAM, and the pool is the same
// whatever the lender is). In process the lender is a *memnode.Node
// (local), built by newPool and named nowhere else in the package; over
// the wire it is a daemon.Client, handed to NewLent.
//
// It carries only what the lender alone knows. A server's name and
// capacity are the pool's own configuration (Config.Servers), and its
// private bytes are capacity minus SharedBytes, so none of the three is
// asked of the lender. Liveness is the pool's verdict too (Pool.dead), and
// every call returns only once done: there is no asynchronous issue/wait.
//
// The slice entry stays with the pool: a lender is handed the extent
// offset, never a logical address, and a move's commit window still
// publishes the one record. A cache hit never reaches a lender.
//
// Which pool locks each call runs under is tabled in DESIGN.md, "The
// lender seam"; p.mu may be held across any of them.
type Lender interface {
	// ReadAt and WriteAt copy len(p) bytes at offset off of the server's
	// memory. ctx is the op's: its deadline bounds a call that crosses a
	// wire, and nil means the call never gives up. An in-process lender
	// cannot block and ignores it.
	ReadAt(ctx context.Context, p []byte, off int64) error
	WriteAt(ctx context.Context, p []byte, off int64) error
	// Alloc grants len(offs) extents of size bytes each of the shared
	// region and stores their offsets in offs; each extent reads as
	// zeros. It is all or none, so a placement asks a lender once for
	// every slice it deals it. Free takes extents back, scrubbed, and
	// frees none of them if one offset is not a live extent. Both fail
	// with an error wrapping alloc.ErrNoSpace or alloc.ErrNotAllocated
	// respectively and change nothing.
	Alloc(size int64, offs []int64) error
	Free(offs ...int64) error
	// Resize moves the private/shared boundary; a shrink over a granted
	// extent fails, wrapping alloc.ErrNoSpace.
	Resize(sharedBytes int64) error
	// Usage reports the shared region's size and its granted bytes; over
	// the wire it is one round trip, and its failure is the call's.
	Usage() (shared, inUse int64, err error)
}

// local is an in-process lender, a memnode.Node. Its copy cannot block,
// so the op's context goes unread.
type local struct{ *memnode.Node }

func (l local) ReadAt(_ context.Context, p []byte, off int64) error { return l.Node.ReadAt(p, off) }

func (l local) WriteAt(_ context.Context, p []byte, off int64) error { return l.Node.WriteAt(p, off) }

func (l local) Usage() (shared, inUse int64, err error) { return l.SharedBytes(), l.InUse(), nil }

// sharedBytes and inUse read one side of a lender's Usage, 0 when it
// cannot say.
func sharedBytes(l Lender) int64 {
	shared, _, _ := l.Usage()
	return shared
}

func inUse(l Lender) int64 {
	_, n, _ := l.Usage()
	return n
}

// allocSlice asks l for one slice-sized extent.
func allocSlice(l Lender) (int64, error) {
	var off [1]int64
	err := l.Alloc(SliceSize, off[:])
	return off[0], err
}

// remote is a lender on the far side of a connection (NewLent). A call
// that fails with rpc.ErrTransient lost the connection; nothing re-dials
// it, so every later call would fail the same way, and the server is
// crash-stopped then and there: marked dead, so the next access recovers
// its slices from their protection and RepairServer re-homes them, as
// after any crash. The mark is one atomic store, legal under any pool
// lock; the rest of Crash's bookkeeping follows at the end of the op
// (settleLosses).
type remote struct {
	Lender
	pool *Pool
	s    addr.ServerID
}

func (r *remote) check(err error) error {
	if err != nil && errors.Is(err, rpc.ErrTransient) && !r.pool.dead[r.s].Swap(true) {
		r.pool.lost[r.s].Store(true)
		r.pool.losses.Add(1)
	}
	return err
}

func (r *remote) ReadAt(ctx context.Context, p []byte, off int64) error {
	return r.check(r.Lender.ReadAt(ctx, p, off))
}

func (r *remote) WriteAt(ctx context.Context, p []byte, off int64) error {
	return r.check(r.Lender.WriteAt(ctx, p, off))
}

func (r *remote) Alloc(size int64, offs []int64) error {
	return r.check(r.Lender.Alloc(size, offs))
}

func (r *remote) Free(offs ...int64) error { return r.check(r.Lender.Free(offs...)) }

func (r *remote) Resize(sharedBytes int64) error { return r.check(r.Lender.Resize(sharedBytes)) }

func (r *remote) Usage() (shared, inUse int64, err error) {
	shared, inUse, err = r.Lender.Usage()
	return shared, inUse, r.check(err)
}

// settleLosses finishes the crash of every server a remote call lost
// since the last settle, and reports whether there was one. Callers hold
// no pool lock.
func (p *Pool) settleLosses() bool {
	if p.losses.Load() == 0 {
		return false
	}
	settled := false
	for s := range p.lost {
		if p.lost[s].Swap(false) {
			p.losses.Add(-1)
			_ = p.Crash(addr.ServerID(s))
			settled = true
		}
	}
	return settled
}
