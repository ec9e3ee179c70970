// Package vectored exercises the vectored path's lock shape: stripe
// indices collected, sorted, locked in a loop, and released in one
// deferred closure loop. Every stripe so taken is held to the end of
// the body, so a call that reaches rpc after the loop is under them.
package vectored

import (
	"slices"
	"sync"

	"rpc"
)

type stripeLock struct{ sync.RWMutex }

type pool struct {
	stripes []stripeLock
	mask    int
	client  *rpc.Client
}

func (p *pool) vectoredOnce(addrs []int, write bool) {
	var order []int
	for _, a := range addrs {
		order = append(order, a&p.mask)
	}
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
	p.fetch() // want "stripe lock held across a call that transitively reaches package rpc: .*fetch.*rpc"
}

func (p *pool) fetch() { p.client.Call(0, nil) }
