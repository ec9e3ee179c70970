package lmp

import (
	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/core"
)

// Sentinel errors of the v1 API. Every error returned by the public
// surface that has one of these causes wraps the corresponding sentinel,
// so callers classify failures with errors.Is without depending on
// internal packages:
//
//	if errors.Is(err, lmp.ErrServerDead) { ... trigger repair ... }
//
// The sentinels alias the runtime's own values, so errors.Is works
// end to end no matter how deep the error originated.
var (
	// ErrServerDead reports an operation that required a crashed server:
	// accessing unprotected data it owned after recovery retries are
	// exhausted, or migrating onto it.
	ErrServerDead = core.ErrServerDead
	// ErrReleased reports use of a buffer after Release: buffer-level
	// accesses return it directly, and pool-level accesses to a released
	// logical range return an error wrapping it (and ErrUnmapped).
	ErrReleased = core.ErrReleased
	// ErrOutOfMemory reports an allocation the pool could not place:
	// Alloc and AllocProtected wrap it when the shared regions are
	// exhausted or too fragmented.
	ErrOutOfMemory = alloc.ErrNoSpace
	// ErrUnmapped reports an access to a logical address with no live
	// allocation.
	ErrUnmapped = addr.ErrUnmapped
	// ErrDeadlineExceeded reports an operation whose deadline budget ran
	// out — the caller's context deadline, or the pool-wide default in
	// Config.Tail.OpBudget. Such errors also match
	// context.DeadlineExceeded.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrOverloaded reports an operation shed by admission control
	// (Config.Tail.AdmissionLimit): the pool was saturated and failing
	// fast beat queueing. Retry after backoff.
	ErrOverloaded = core.ErrOverloaded
	// ErrServerDegraded reports a read that could not be served because
	// the owning server's circuit breaker (Config.Tail.Breaker) is open
	// and no live replica could absorb it. Distinct from ErrServerDead: the
	// server is slow or flapping, not crashed, and the breaker re-probes
	// it automatically.
	ErrServerDegraded = core.ErrServerDegraded
)
