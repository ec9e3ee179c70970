// Future is the async half of the transport: CallAsyncCtx returns one, the
// blocking Call is a shim that waits on one. Completion is linearized by
// the pending table — whoever removes the id from the table completes
// the future, so a future resolves exactly once even when a response, a
// cancellation and Close race.
package rpc

import (
	"context"
	"fmt"
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

	// req is the request Async assembled for a wrapped transport, which
	// Release recycles if the call succeeded. Set by Async, read by
	// Release.
	req *[]byte

	// borrow says the call's queued frame borrows the caller's body
	// (Async on a *Client): a failed call withdraws the frame before its
	// waiter returns. Set by the issuer, read by the waiter.
	borrow bool

	// dst is the caller's destination for the reply bytes, set by Into
	// under the pending-table lock (into says it was). landed is set by
	// the read loop before it completes the future when the bytes went
	// straight into dst; otherwise settle copies them there.
	dst    []byte
	into   bool
	landed bool

	// done carries the completion signal as a buffered send (not a
	// close), so pooled futures are reusable without reallocating the
	// channel. complete() sends exactly once; Wait receives exactly once.
	done chan struct{}

	payload []byte
	err     error

	// then, when set, post-processes the raw completion in the waiter's
	// goroutine — a wrapper (the benchmark's span seam) hangs its
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

// putFuture recycles a resolved future. Its request is not its
// business: Release has recycled it or left it to the collector.
func putFuture(f *Future) {
	*f = Future{done: f.done}
	futurePool.Put(f)
}

// Into makes dst the destination of the call's reply: a successful
// result is dst itself, holding the reply bytes. It is how a read lands
// in the caller's buffer without a reply buffer in between: a reply of
// exactly len(dst) bytes that arrives after Into is read off the
// connection straight into dst; if the read loop had already taken the
// reply when Into came, the bytes are copied into dst when the waiter
// first consumes the result. A reply of any other length fails the call and leaves dst
// untouched. Nothing writes to dst once Wait or WaitCtx has returned.
// Like Then it must be called at most once, before the future is handed
// to its waiter.
func (f *Future) Into(dst []byte) *Future {
	if c := f.c; c != nil {
		c.pt.Lock() // the read loop reads dst when it takes the call
		defer c.pt.Unlock()
	}
	f.dst, f.into = dst, true
	return f
}

// errReplyLength is the failure of a reply whose length is not its
// destination's.
func errReplyLength(got, want int) error {
	return fmt.Errorf("rpc: reply of %d bytes for a %d-byte destination", got, want)
}

// Release gives a resolved future back and, when the call resolved with
// a nil error, the request Async assembled for it. The single waiter
// calls it at most once, after Wait or WaitCtx has returned; the future
// may not be touched afterwards, while the payload it returned stays the
// caller's. Detached futures (ResolvedFuture's) and futures never
// waited on release as no-ops and are left to the collector.
func (f *Future) Release() {
	if f.c == nil || !f.resolved {
		return
	}
	if f.err == nil && f.req != nil {
		poison((*f.req)[:cap(*f.req)])
		assembled.Put(f.req)
	}
	putFuture(f)
}

// newFuture builds a detached future (ResolvedFuture's): no client,
// nothing to withdraw, nothing to release.
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

// settle caches the received completion, gives a failed call's borrowed
// body back only once the flusher is done with it, lands a reply that did
// not go straight into the destination, and runs the then hook.
func (f *Future) settle() {
	f.resolved = true
	if f.borrow && f.err != nil {
		f.c.b.withdraw(f.id)
	}
	if f.into && !f.landed && f.err == nil {
		if len(f.payload) == len(f.dst) {
			copy(f.dst, f.payload)
			f.payload = f.dst
		} else {
			f.payload, f.err = nil, errReplyLength(len(f.payload), len(f.dst))
		}
	}
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
		if g, _, _ := f.c.takePending(f.id); g != nil {
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

// AsyncCaller is the pipelined call surface: a Caller that can also
// issue a call without blocking for its reply. *Client implements it.
type AsyncCaller interface {
	Caller
	CallAsyncCtx(ctx context.Context, method byte, payload []byte) *Future
}

// assembled recycles the requests Async assembles for a wrapped
// transport. It holds pointers, so that a put allocates nothing.
var assembled sync.Pool

// Async issues a call on c without blocking; its request payload is
// head followed by body. It is the one way a data call starts.
//
// On a *Client (and a head of at most 16 bytes) the request is gathered:
// the queued frame carries a copy of head and borrows body, and the
// flusher writes header, head and body where they lie — a frame past
// frameCoalesceMax as one vectored write whose last piece is the
// caller's slice. The body goes back to the caller only once the flusher
// has written its frame or dropped it. A successful reply proves that
// wherever the server reads the whole request before it succeeds: every
// Handle method, and a Receiver that reads all of its body, as lmpd's
// write does. No other completion may return the call first — not a
// cancellation, not Close, not a connection failure, not an error reply,
// which a Receiver can send before its body is drained: when a borrowing
// call fails, its waiter withdraws a frame the flusher has not taken yet
// from the queue, unsent, and otherwise waits for the write in flight to
// end before Wait or WaitCtx returns. The success path takes no lock,
// atomic or channel operation for this. The caller must not change the
// body until its future has been waited on.
//
// Any other AsyncCaller gets head and body assembled in a buffer of
// Async's own, so a wrapper that holds or re-sends its payload never
// reads the caller's slice. The future owns that buffer, and Release
// recycles it only when the logical call resolved with a nil error: a
// successful reply proves the frame left the send queue, while after a
// cancellation, a connection failure or Close the flusher may still hold
// the queued frame, so on any error the buffer is left to the collector.
// A wrapper that re-sends a payload after the call it belongs to has
// succeeded must send a copy. Under the race detector a recycled request
// is overwritten as it goes back (poison_race.go), so a use after its
// release shows up as wrong bytes.
func Async(c AsyncCaller, ctx context.Context, method byte, head, body []byte) *Future {
	if cl, ok := c.(*Client); ok && len(head) <= headMax {
		f := getFuture(cl)
		f.borrow = cl.startCall(ctx, method, head, body, f) && len(body) > 0
		return f
	}
	bp, _ := assembled.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	req := append(append((*bp)[:0], head...), body...)
	*bp = req
	f := c.CallAsyncCtx(ctx, method, req)
	f.req = bp
	return f
}
