package telemetry

import (
	_ "unsafe" // for go:linkname
)

// The hot-path counters below shard their storage by the calling
// goroutine's current P, the same scheduling identity sync.Pool keys its
// per-processor pools on. A momentary pin/unpin reads the id; the pair
// costs a couple of nanoseconds and never blocks. The id is only a
// placement hint — a goroutine migrating between Ps lands on another
// cache line, which affects locality, never correctness.
//
// procPin/procUnpin are the runtime's compatibility-listed pinning
// primitives (sync.Pool's own mechanism); there is no exported
// equivalent with comparable cost.

//go:linkname runtime_procPin runtime.procPin
func runtime_procPin() int

//go:linkname runtime_procUnpin runtime.procUnpin
func runtime_procUnpin()

//go:linkname runtime_nanotime runtime.nanotime
func runtime_nanotime() int64

// laneHint returns a small integer that is stable while a goroutine
// stays on one P, so striped-counter cells stay resident in that core's
// cache instead of bouncing between all writers.
func laneHint() int {
	p := runtime_procPin()
	runtime_procUnpin()
	return p
}

// BeginUpdate pins the calling goroutine to its P and returns that P's
// id for the *At counter methods; EndUpdate releases the pin. While
// pinned, no other goroutine can run on the same P, so a cell indexed
// by a P id below cellsPerLane is exclusively the caller's — AddAt
// exploits that to replace the lock-prefixed read-modify-write of a
// shared atomic add with a plain atomic load + store pair, roughly an
// order of magnitude cheaper on x86. Hot paths that bump several
// counters per operation batch them under one BeginUpdate/EndUpdate
// pair instead of paying a pin (or a contended RMW) per counter.
//
// The critical section must not block, allocate, or call back into
// arbitrary code: pinning disables preemption, so anything slow holds
// up every goroutine queued on this P.
func BeginUpdate() int { return runtime_procPin() }

// EndUpdate releases the pin taken by BeginUpdate.
func EndUpdate() { runtime_procUnpin() }

// Sampler makes 1-in-N sampling decisions with no shared mutable
// state: each P counts its own operations in a padded cell, so
// concurrent callers never touch the same cache line. A single global
// counting sampler is a contended atomic on every operation — the
// exact hot-path tax sampling exists to avoid. The trade is that the
// 1-in-N cadence holds per P rather than globally, which for sampling
// purposes is indistinguishable.
// The cells come first: the every/mask header is read on every call by
// every P, and placing it next to cell 0 would let cell 0's stores
// invalidate the header's line for all readers.
type Sampler struct {
	cells [cellsPerLane]stripedLane
	every uint64
	mask  uint64 // every-1 when every is a power of two, else 0
}

// NewSampler returns a sampler that reports true once per every calls
// (per P). every <= 1 reports true always.
func NewSampler(every uint64) *Sampler {
	s := &Sampler{every: every}
	if every > 1 && every&(every-1) == 0 {
		s.mask = every - 1
	}
	return s
}

// Hit reports whether this call is the one in every to sample.
func (s *Sampler) Hit() bool {
	if s.every <= 1 {
		return true
	}
	p := runtime_procPin()
	n := s.cells[p&cellMask].bump()
	runtime_procUnpin()
	if s.mask != 0 {
		return n&s.mask == 0
	}
	return n%s.every == 0
}
