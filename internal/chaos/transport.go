package chaos

import (
	"context"
	"fmt"

	"github.com/lmp-project/lmp/internal/rpc"
	"github.com/lmp-project/lmp/internal/sim"
)

// Link interposes the injector on one server's RPC transport. It
// satisfies rpc.Caller, so it stacks under the daemon client. Nothing
// retries above it: every injected drop or timeout reaches the caller as
// exactly one rpc.ErrTransient, which the harness matches against the
// fault trace.
type Link struct {
	in     *Injector
	server int
	next   rpc.Caller
}

// WrapTransport wraps the transport to server with per-call fault
// injection.
func (in *Injector) WrapTransport(server int, next rpc.Caller) *Link {
	return &Link{in: in, server: server, next: next}
}

// Call is CallCtx without cancellation.
func (l *Link) Call(method byte, payload []byte) ([]byte, error) {
	return l.CallCtx(nil, method, payload)
}

// CallCtx applies the injector's verdict for this call, then forwards to
// the wrapped transport. Crashed targets fail with rpc.ErrServerDead;
// drops and timeouts fail with rpc.ErrTransient; duplication forwards the
// call twice (at-least-once delivery, discarding the second result).
func (l *Link) CallCtx(ctx context.Context, method byte, payload []byte) ([]byte, error) {
	in := l.in
	in.mu.Lock()
	if in.crashed[l.server] {
		in.record(FaultDead, l.server, fmt.Sprintf("method=%d", method))
		in.mu.Unlock()
		return nil, fmt.Errorf("chaos: server %d is crashed: %w", l.server, rpc.ErrServerDead)
	}
	verdict := l.roll(method)
	in.mu.Unlock()

	switch verdict.kind {
	case FaultDrop:
		in.drops.Inc()
		return nil, fmt.Errorf("chaos: dropped method %d to server %d: %w", method, l.server, rpc.ErrTransient)
	case FaultTimeout:
		in.drops.Inc()
		return nil, fmt.Errorf("chaos: method %d to server %d timed out after %v: %w",
			method, l.server, verdict.delay, rpc.ErrTransient)
	case FaultDelay:
		in.delays.Inc()
	case FaultDup:
		in.dups.Inc()
		resp, err := l.next.CallCtx(ctx, method, payload)
		if err != nil {
			return resp, err
		}
		l.redeliver(ctx, method, payload)
		return resp, nil
	}
	return l.next.CallCtx(ctx, method, payload)
}

// redeliver is duplicate delivery: the call reaches the server a second
// time, its result discarded. It sends a copy of the payload: the first
// delivery has already succeeded, so the caller may recycle its request
// buffer as soon as this returns, while a second delivery abandoned by a
// cancelled ctx can still sit in the transport's send queue.
func (l *Link) redeliver(ctx context.Context, method byte, payload []byte) {
	_, _ = l.next.CallCtx(ctx, method, append([]byte(nil), payload...))
}

// CallAsyncCtx applies the injector's verdict per logical call, then
// pipelines through the wrapped transport: the verdict is drawn before
// the request is queued, so a batched wire carries exactly the faults
// the seed dictates regardless of how frames coalesce. Injected
// failures resolve immediately; a duplicated call re-delivers on the
// waiting goroutine when the first delivery resolves.
func (l *Link) CallAsyncCtx(ctx context.Context, method byte, payload []byte) *rpc.Future {
	in := l.in
	in.mu.Lock()
	if in.crashed[l.server] {
		in.record(FaultDead, l.server, fmt.Sprintf("method=%d", method))
		in.mu.Unlock()
		return rpc.ResolvedFuture(nil, fmt.Errorf("chaos: server %d is crashed: %w", l.server, rpc.ErrServerDead))
	}
	verdict := l.roll(method)
	in.mu.Unlock()

	switch verdict.kind {
	case FaultDrop:
		in.drops.Inc()
		return rpc.ResolvedFuture(nil, fmt.Errorf("chaos: dropped method %d to server %d: %w", method, l.server, rpc.ErrTransient))
	case FaultTimeout:
		in.drops.Inc()
		return rpc.ResolvedFuture(nil, fmt.Errorf("chaos: method %d to server %d timed out after %v: %w",
			method, l.server, verdict.delay, rpc.ErrTransient))
	case FaultDelay:
		in.delays.Inc()
	case FaultDup:
		in.dups.Inc()
		f := rpc.Async(l.next, ctx, method, payload)
		return f.Then(func(resp []byte, err error) ([]byte, error) {
			if err != nil {
				return resp, err
			}
			l.redeliver(ctx, method, payload)
			return resp, nil
		})
	}
	return rpc.Async(l.next, ctx, method, payload)
}

type verdict struct {
	kind  FaultKind
	delay sim.Duration
}

// roll draws this call's fate. Caller holds in.mu; draws happen in a
// fixed order (drop, delay, dup) so one seed replays one fault sequence.
func (l *Link) roll(method byte) verdict {
	in := l.in
	tag := fmt.Sprintf("method=%d", method)
	if in.cfg.PDrop > 0 && in.rng.Float64() < in.cfg.PDrop {
		in.record(FaultDrop, l.server, tag)
		return verdict{kind: FaultDrop}
	}
	if in.cfg.PDelay > 0 && in.rng.Float64() < in.cfg.PDelay && in.cfg.MaxDelay > 0 {
		d := sim.Duration(1 + in.rng.Int63n(int64(in.cfg.MaxDelay)))
		if f := in.slow[l.server]; f > 1 {
			d = sim.Duration(float64(d) * f)
		}
		if in.cfg.CallTimeout > 0 && d > in.cfg.CallTimeout {
			in.record(FaultTimeout, l.server, fmt.Sprintf("%s delay=%v", tag, d))
			return verdict{kind: FaultTimeout, delay: d}
		}
		in.record(FaultDelay, l.server, fmt.Sprintf("%s delay=%v", tag, d))
		return verdict{kind: FaultDelay, delay: d}
	}
	if in.cfg.PDup > 0 && in.rng.Float64() < in.cfg.PDup {
		in.record(FaultDup, l.server, tag)
		return verdict{kind: FaultDup}
	}
	return verdict{}
}
