// Future is the async half of the transport: CallAsync returns one, the
// blocking Call is a shim that waits on one. Completion is linearized by
// the pending table — whoever removes the id from the table completes
// the future, so a future resolves exactly once even when a response, a
// cancellation, MarkDead, and Close race.
package rpc

import (
	"context"
	"sync"
)

// Future is one in-flight logical call. Exactly one goroutine may wait
// on a Future (Wait/WaitCtx); after the first wait returns, further
// waits return the same cached result. Futures returned by CallAsync are
// owned by the caller; the blocking Call path recycles its futures
// internally.
type Future struct {
	c  *Client
	id uint64

	// done carries the completion signal as a buffered send (not a
	// close), so pooled futures are reusable without reallocating the
	// channel. complete() sends exactly once; Wait receives exactly once.
	done chan struct{}

	payload []byte
	err     error

	// then, when set, post-processes the raw completion in the waiter's
	// goroutine — transport wrappers (Retrier, chaos links) hang their
	// per-logical-call behaviour here without spawning a goroutine per
	// call. Waiter-only state, like resolved.
	then     func([]byte, error) ([]byte, error)
	resolved bool
}

// futurePool recycles the blocking-shim futures so Call stays
// allocation-free on the batched send path.
var futurePool = sync.Pool{New: func() any {
	return &Future{done: make(chan struct{}, 1)}
}}

func getFuture(c *Client) *Future {
	f := futurePool.Get().(*Future)
	f.c = c
	return f
}

func putFuture(f *Future) {
	f.c, f.id, f.payload, f.err, f.then, f.resolved = nil, 0, nil, nil, nil, false
	futurePool.Put(f)
}

// newFuture builds a caller-owned future bound to c (nil for detached
// futures such as ResolvedFuture's).
func newFuture(c *Client) *Future {
	return &Future{c: c, done: make(chan struct{}, 1)}
}

// complete resolves the future. It must be called exactly once per
// registration; the pending table's take-once discipline guarantees it.
// The select is a backstop: a second complete panics instead of silently
// corrupting the result.
func (f *Future) complete(payload []byte, err error) {
	f.payload, f.err = payload, err
	select {
	case f.done <- struct{}{}:
	default:
		panic("rpc: future resolved twice")
	}
}

// settle caches the received completion and runs the then hook.
func (f *Future) settle() {
	f.resolved = true
	if fn := f.then; fn != nil {
		f.then = nil
		f.payload, f.err = fn(f.payload, f.err)
	}
}

// Wait blocks until the call completes and returns its result. Calling
// Wait again returns the same result.
func (f *Future) Wait() ([]byte, error) {
	if !f.resolved {
		<-f.done
		f.settle()
	}
	return f.payload, f.err
}

// WaitCtx is Wait with cancellation. When ctx ends first the pending
// entry is withdrawn and the call fails with an error wrapping ctx.Err();
// if the response wins the race with the withdrawal, the real result is
// returned. The future is resolved either way — cancellation never
// leaks a pending-table entry or an unresolved future.
func (f *Future) WaitCtx(ctx context.Context) ([]byte, error) {
	if f.resolved {
		return f.payload, f.err
	}
	if ctx == nil {
		return f.Wait()
	}
	select {
	case <-f.done:
		f.settle()
		return f.payload, f.err
	case <-ctx.Done():
	}
	if f.c != nil {
		// Withdraw the pending entry; if the read loop already took it,
		// the completion is in flight and the receive below is short.
		if g := f.c.takePending(f.id); g != nil {
			g.complete(nil, cancelErr(ctx.Err()))
		}
		<-f.done
		f.settle()
		return f.payload, f.err
	}
	return nil, cancelErr(ctx.Err())
}

// Then hangs a post-processing hook on the future, composing with any
// hook already present (outermost wrapper runs last). The hook runs in
// the waiting goroutine when the result is first consumed; transport
// wrappers use it to implement per-logical-call retry and fault
// injection without a goroutine per call. Then must be called before the
// future is handed to its waiter.
func (f *Future) Then(fn func([]byte, error) ([]byte, error)) *Future {
	if prev := f.then; prev != nil {
		f.then = func(p []byte, err error) ([]byte, error) {
			return fn(prev(p, err))
		}
	} else {
		f.then = fn
	}
	return f
}

// ResolvedFuture returns an already-completed detached future — the
// async analogue of returning (payload, err) directly.
func ResolvedFuture(payload []byte, err error) *Future {
	f := newFuture(nil)
	f.complete(payload, err)
	return f
}

// SpawnFuture runs fn in its own goroutine and returns a future for its
// result: the adapter from any blocking Caller to the async surface.
func SpawnFuture(fn func() ([]byte, error)) *Future {
	f := newFuture(nil)
	go func() {
		f.complete(fn())
	}()
	return f
}

// AsyncCaller is the pipelined call surface: a Caller that can also
// issue a call without blocking for its reply. *Client, *Retrier, and
// the chaos link implement it.
type AsyncCaller interface {
	Caller
	CallAsyncCtx(ctx context.Context, method byte, payload []byte) *Future
}

// Async issues a call on c without blocking: natively when c is an
// AsyncCaller, otherwise via a spawned goroutine around the blocking
// CallCtx, so callers can pipeline over any Caller in the stack.
func Async(c Caller, ctx context.Context, method byte, payload []byte) *Future {
	if ac, ok := c.(AsyncCaller); ok {
		return ac.CallAsyncCtx(ctx, method, payload)
	}
	return SpawnFuture(func() ([]byte, error) {
		return c.CallCtx(ctx, method, payload)
	})
}
