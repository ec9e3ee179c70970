// Package interproc exercises the whole-program lockorder rules: a
// transitive (two calls deep) RPC reach under a stripe lock, and a
// seeded stripe/cache-shard lock-order cycle split across helpers so
// no single function ever holds both locks.
package interproc

import (
	"sync"

	"rpc"
)

type stripeLock struct{ sync.Mutex }
type cacheShard struct{ sync.Mutex }

type pool struct {
	stripes [4]stripeLock
	shards  [4]cacheShard
	client  *rpc.Client
}

// ReadSlice reaches the wire two calls below the stripe lock: the
// syntactic rule sees no rpc selector here, only the program pass does.
func (p *pool) ReadSlice(i int) {
	p.stripes[i].Lock()
	defer p.stripes[i].Unlock()
	p.refill(i) // want "stripe lock held across a call that transitively reaches package rpc: .*refill.*fetch.*rpc"
}

func (p *pool) refill(i int) { p.fetch() }

func (p *pool) fetch() { p.client.Call(0, nil) }

// fill contributes the stripe -> cache-shard edge of the seeded cycle,
// through one helper.
func (p *pool) fill(i int) {
	p.stripes[i].Lock()
	defer p.stripes[i].Unlock()
	p.promote(i) // want "lock-order cycle stripe -> cache-shard -> stripe"
}

func (p *pool) promote(i int) { p.shardPut(i) }

func (p *pool) shardPut(i int) {
	p.shards[i].Lock()
	p.shards[i].Unlock()
}

// evict contributes the cache-shard -> stripe edge, closing the cycle.
func (p *pool) evict(i int) {
	p.shards[i].Lock()
	defer p.shards[i].Unlock()
	p.writeBack(i)
}

func (p *pool) writeBack(i int) { p.lockStripe(i) }

func (p *pool) lockStripe(i int) {
	p.stripes[i].Lock()
	p.stripes[i].Unlock()
}

// snapshotThenSend is the legal shape: copy under the stripe lock,
// release, then talk to the wire. No diagnostic.
func (p *pool) snapshotThenSend(i int, buf []byte) {
	p.stripes[i].Lock()
	n := copy(buf, buf)
	p.stripes[i].Unlock()
	_ = n
	p.fetch()
}

// readChecked releases on an early return: past that branch the stripe
// is still held, so the fetch below it is reported.
func (p *pool) readChecked(i int, stale bool) {
	p.stripes[i].Lock()
	if stale {
		p.stripes[i].Unlock()
		return
	}
	p.fetch() // want "stripe lock held across a call that transitively reaches package rpc"
	p.stripes[i].Unlock()
}

// commitLater builds two closures under no lock. The first takes the
// stripe itself, so its fetch is reported; the second is built under
// the stripe but called after the release, so its fetch is not.
func (p *pool) commitLater(i int) func() {
	commit := func() {
		p.stripes[i].Lock()
		p.fetch() // want "stripe lock held across a call that transitively reaches package rpc"
		p.stripes[i].Unlock()
	}
	p.stripes[i].Lock()
	later := func() { p.fetch() }
	p.stripes[i].Unlock()
	commit()
	return later
}
