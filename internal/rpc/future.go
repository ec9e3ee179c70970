// Future is the async half of the transport: CallAsyncCtx returns one, the
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
// waits return the same cached result. Futures returned by CallAsyncCtx are
// owned by the caller, who may hand one back with Release once it is
// done with the result; the blocking Call path recycles its futures
// internally.
type Future struct {
	c  *Client
	id uint64

	// The pooled buffers that ride with the call (bufpool.go, rules 3 and
	// 4): reply is the buffer readFrame filled, set by whoever completes
	// the future; req is the caller's request buffer, set by OwnRequest.
	// Release is the only reader of both.
	reply []byte
	req   []byte

	// done carries the completion signal as a buffered send (not a
	// close), so pooled futures are reusable without reallocating the
	// channel. complete() sends exactly once; Wait receives exactly once.
	done chan struct{}

	payload []byte
	err     error

	// then, when set, post-processes the raw completion in the waiter's
	// goroutine — wrappers (the chaos link, bench spans) hang their
	// per-logical-call behaviour here without spawning a goroutine per
	// call. Waiter-only state, like resolved.
	then     func([]byte, error) ([]byte, error)
	resolved bool
}

// futurePool recycles a client's futures — the blocking shim's and the
// released async ones — so a call allocates no future in the steady
// state. A future nobody releases is collected like any other object.
var futurePool = sync.Pool{New: func() any {
	return &Future{done: make(chan struct{}, 1)}
}}

func getFuture(c *Client) *Future {
	f := futurePool.Get().(*Future)
	f.c = c
	return f
}

// putFuture recycles a resolved future. Its buffers are not its
// business: the caller has released them or passed them on.
func putFuture(f *Future) {
	*f = Future{done: f.done}
	futurePool.Put(f)
}

// OwnRequest hands the future the GetBuffer buffer the call's request
// was assembled in: Release gives it back if — and only if — the call
// succeeded (bufpool.go, rule 4). Like Then it must be called before the
// future is handed to its waiter.
func (f *Future) OwnRequest(req []byte) *Future {
	f.req = req
	return f
}

// Release gives a resolved future back, with the reply buffer it owns
// and, when the call resolved with a nil error, its request buffer. The
// single waiter calls it at most once, after Wait or WaitCtx has
// returned and the reply bytes have been copied out; neither the future
// nor the payload it returned may be touched afterwards. Detached futures
// (ResolvedFuture, SpawnFuture) and futures never waited on release as
// no-ops and are left to the collector.
//
//lmp:hotpath
func (f *Future) Release() {
	if f.c == nil || !f.resolved {
		return
	}
	if f.err == nil {
		PutBuffer(f.req)
	}
	PutBuffer(f.reply)
	putFuture(f)
}

// newFuture builds a detached future (ResolvedFuture's, SpawnFuture's):
// no client, nothing to withdraw, nothing to release.
func newFuture() *Future {
	return &Future{done: make(chan struct{}, 1)}
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
// wrappers use it to implement per-logical-call fault injection and
// tracing without a goroutine per call. Then must be called before the
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
	f := newFuture()
	f.complete(payload, err)
	return f
}

// SpawnFuture runs fn in its own goroutine and returns a future for its
// result: the adapter from any blocking Caller to the async surface.
func SpawnFuture(fn func() ([]byte, error)) *Future {
	f := newFuture()
	go func() {
		f.complete(fn())
	}()
	return f
}

// AsyncCaller is the pipelined call surface: a Caller that can also
// issue a call without blocking for its reply. *Client and the chaos
// link implement it.
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
