// Package core exercises lockorder's declared lender calls: the
// exception names (*core.Pool) functions, so a fixture of this path is
// the pool in small. A lender call under the stripe lock alone, from a
// declared holder to a declared callee, is silent; the same call from
// another holder, or under a cache-shard, directory or pending-table
// lock or a proc pin, is still reported.
package core

import (
	"context"
	"sync"

	"rpc"
	"telemetry"
)

// Lender is the seam; wire is a lender whose calls cross the wire.
type Lender interface {
	ReadAt(ctx context.Context, p []byte, off int64) error
	WriteAt(ctx context.Context, p []byte, off int64) error
}

type wire struct{ c *rpc.Client }

func (w wire) ReadAt(ctx context.Context, p []byte, off int64) error {
	_, err := w.c.Call(1, nil)
	return err
}

func (w wire) WriteAt(ctx context.Context, p []byte, off int64) error {
	_, err := w.c.Call(2, p)
	return err
}

type stripe struct{ sync.RWMutex }
type cacheShard struct{ sync.Mutex }
type pendingTable struct{ sync.Mutex }
type pageDirectory struct{ mu sync.Mutex }

type Pool struct {
	stripes [4]stripe
	shards  [4]cacheShard
	pending pendingTable
	dir     pageDirectory
	nodes   []Lender
}

func (p *Pool) readLocked(ctx context.Context, dst []byte) error {
	return p.nodes[0].ReadAt(ctx, dst, 0)
}

func (p *Pool) fillLocked(ctx context.Context, dst []byte) error { return p.readLocked(ctx, dst) }

func (p *Pool) writeSliceLocked(ctx context.Context, part []byte) error {
	return p.nodes[0].WriteAt(ctx, part, 0)
}

// accessSliceOnce is a declared holder: its three declared callees run
// under the stripe lock, unreported.
func (p *Pool) accessSliceOnce(ctx context.Context, s int, buf []byte, op int) error {
	lock := &p.stripes[s]
	lock.RLock()
	defer lock.RUnlock()
	switch op {
	case 0:
		return p.readLocked(ctx, buf)
	case 1:
		return p.fillLocked(ctx, buf)
	default:
		return p.writeSliceLocked(ctx, buf)
	}
}

// vectoredOnce is the other declared holder, with the lender's WriteAt
// called directly. Under any other data lock its calls are reported.
func (p *Pool) vectoredOnce(ctx context.Context, s int, buf []byte) error {
	lock := &p.stripes[s]
	lock.Lock()
	defer lock.Unlock()
	node := p.nodes[0]
	if err := node.WriteAt(ctx, buf, 0); err != nil {
		return err
	}
	if err := p.writeSliceLocked(ctx, buf); err != nil {
		return err
	}
	p.shards[s].Lock()
	err := p.readLocked(ctx, buf) // want "cache-shard lock held across a call that transitively reaches package rpc"
	p.shards[s].Unlock()
	p.dir.mu.Lock()
	_ = node.WriteAt(ctx, buf, 0) // want "directory lock held across a call that transitively reaches package rpc"
	p.dir.mu.Unlock()
	p.pending.Lock()
	_ = p.readLocked(ctx, buf) // want "pending-table lock held across a call that transitively reaches package rpc"
	p.pending.Unlock()
	telemetry.BeginUpdate()
	_ = p.writeSliceLocked(ctx, buf) // want "proc-pin lock held across a call that transitively reaches package rpc"
	telemetry.EndUpdate()
	return err
}

// flushLocked is not a declared holder: the declared callee is reported
// under its stripe lock.
func (p *Pool) flushLocked(ctx context.Context, s int, buf []byte) error {
	lock := &p.stripes[s]
	lock.Lock()
	defer lock.Unlock()
	return p.readLocked(ctx, buf) // want "stripe lock held across a call that transitively reaches package rpc"
}

// accessSliceOnceLegacy's name is not a declared holder's either.
func (p *Pool) accessSliceOnceLegacy(ctx context.Context, s int, buf []byte) error {
	lock := &p.stripes[s]
	lock.RLock()
	defer lock.RUnlock()
	return p.nodes[0].ReadAt(ctx, buf, 0) // want "stripe lock held across a call that transitively reaches package rpc"
}
