// Package pinuser exercises the interprocedural reach of the proc-pin
// rule: the violations sit two calls below the pinned region, where no
// per-function check can see them.
package pinuser

import (
	"sync"

	"rpc"
	"telemetry"
)

var (
	mu     sync.Mutex
	total  uint64
	client *rpc.Client
)

// Record takes a mutex two calls deep while pinned: Record -> addSlow ->
// flush -> mu.Lock.
func Record(n uint64) {
	h := telemetry.BeginUpdate()
	addSlow(h, n) // want "proc-pin lock held across a mutex acquisition: .*addSlow.*flush.*Lock"
	telemetry.EndUpdate()
}

func addSlow(h int, n uint64) { flush(n) }

func flush(n uint64) {
	mu.Lock()
	total += n
	mu.Unlock()
}

// Nested re-pins through a helper while already pinned.
func Nested(n uint64) {
	h := telemetry.BeginUpdate()
	_ = h
	pinnedBump(n) // want "proc-pin lock held across a nested proc pin: .*pinnedBump"
	telemetry.EndUpdate()
}

func pinnedBump(n uint64) {
	h := telemetry.BeginUpdate()
	_ = h
	_ = n
	telemetry.EndUpdate()
}

// Publish reaches the wire while pinned, and the pin is released by
// defer, so it is held to the end of the body.
func Publish(n uint64) {
	telemetry.BeginUpdate()
	defer telemetry.EndUpdate()
	send() // want "proc-pin lock held across a call that transitively reaches package rpc: .*send.*rpc"
}

func send() { client.Call(0, nil) }

// Deferred cleanup runs at function exit, outside the region: clean.
func WithDefer(n uint64) {
	defer flush(n)
	h := telemetry.BeginUpdate()
	_ = h
	telemetry.EndUpdate()
}
