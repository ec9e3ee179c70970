package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/lmp-project/lmp/internal/telemetry"
)

// Sentinel errors of the transport layer. They survive the wire: a server
// handler that returns an error wrapping one of these produces a client
// error for which errors.Is reports the same sentinel (the error frame
// carries a one-byte code, see encodeErrorPayload).
var (
	// ErrServerDead reports a call to a peer that is crash-stopped: the
	// local failure detector marked it dead (Client.MarkDead), or the
	// remote side classified the target server as dead. Dead is terminal —
	// retrying cannot help; callers should trigger recovery instead.
	ErrServerDead = errors.New("rpc: server dead")
	// ErrTransient reports a retryable transport fault: a dropped or
	// timed-out call whose effect is unknown. Bounded retry (Retrier)
	// heals these without surfacing them to callers.
	ErrTransient = errors.New("rpc: transient transport fault")
	// ErrDeadlineExceeded reports a call whose deadline budget ran out:
	// the caller's context deadline passed before the call resolved, or
	// the propagated wire budget was already spent when the server got to
	// dispatch it. Not retryable — the budget only shrinks across
	// attempts, so a retry would fail the same way later.
	ErrDeadlineExceeded = errors.New("rpc: deadline budget exceeded")
	// ErrOverloaded reports admission-control shedding: the client's
	// bounded in-flight budget (SetAdmissionLimit) was saturated, so the
	// call was rejected instead of growing the pending table. Callers
	// should back off or divert load, not blind-retry.
	ErrOverloaded = errors.New("rpc: overloaded")
	// ErrServerDegraded reports a circuit-breaker fast-fail: the peer is
	// alive but slow or error-prone, so calls are shed instead of queueing
	// behind it. Distinct from ErrServerDead — the breaker half-opens and
	// recovers on its own; no repair is triggered.
	ErrServerDegraded = errors.New("rpc: server degraded")
)

// Caller is the blocking call surface: one request/response exchange,
// with and without cancellation. *Client implements it, as do the
// fault-injecting and retrying wrappers, so the layers compose;
// the daemon client accepts any Caller so chaos layers can interpose.
type Caller interface {
	Call(method byte, payload []byte) ([]byte, error)
	CallCtx(ctx context.Context, method byte, payload []byte) ([]byte, error)
}

// RetryPolicy bounds how a Retrier heals transient faults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Values below 1 behave as 1.
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further retry
	// doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy is tuned for LAN-scale fabrics: four attempts with
// 1ms..8ms exponential backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
}

// backoff returns the wait before retry number retry (1-based).
func (p RetryPolicy) backoff(retry int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < retry; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		return p.MaxBackoff
	}
	return d
}

// Retrier wraps a Caller with bounded retry/backoff. Only errors wrapping
// ErrTransient are retried: ErrServerDead is terminal by contract, and
// other errors (remote handler failures, protocol errors) are assumed
// deterministic. Retrier is safe for concurrent use.
type Retrier struct {
	T      Caller
	Policy RetryPolicy
	// Sleep waits between attempts; nil means time.Sleep. Deterministic
	// tests and simulations inject their own (or a no-op).
	Sleep func(time.Duration)
	// OnRetry, if set, observes every retry decision.
	OnRetry func(attempt int, method byte, err error)

	retries atomic.Uint64
	healed  atomic.Uint64
}

// Retries reports how many retry attempts were issued.
func (r *Retrier) Retries() uint64 { return r.retries.Load() }

// Healed reports how many calls succeeded only after at least one retry —
// the faults that never surfaced to callers.
func (r *Retrier) Healed() uint64 { return r.healed.Load() }

// Call is Caller.Call with retry.
func (r *Retrier) Call(method byte, payload []byte) ([]byte, error) {
	return r.CallCtx(nil, method, payload)
}

// CallCtx is Caller.CallCtx with retry. Cancellation is honoured between
// attempts as well as within them.
func (r *Retrier) CallCtx(ctx context.Context, method byte, payload []byte) ([]byte, error) {
	resp, err := r.T.CallCtx(ctx, method, payload)
	if err == nil {
		return resp, nil
	}
	return r.retryTail(ctx, method, payload, err)
}

// CallAsyncCtx pipelines the first attempt through the wrapped caller's
// async path; a failure falls back to blocking retries in the waiting
// goroutine (via the future's then-hook), so retry stays a per-logical-
// call decision no matter how the attempts were batched on the wire.
func (r *Retrier) CallAsyncCtx(ctx context.Context, method byte, payload []byte) *Future {
	f := Async(r.T, ctx, method, payload)
	return f.Then(func(p []byte, err error) ([]byte, error) {
		if err == nil {
			return p, nil
		}
		return r.retryTail(ctx, method, payload, err)
	})
}

// retryTail heals a failed first attempt: while err is transient and the
// attempt budget allows, back off and re-issue the call synchronously.
// attempt counts attempts already made (the caller made the first).
func (r *Retrier) retryTail(ctx context.Context, method byte, payload []byte, err error) ([]byte, error) {
	max := r.Policy.MaxAttempts
	if max < 1 {
		max = 1
	}
	for attempt := 1; ; attempt++ {
		if !errors.Is(err, ErrTransient) || attempt >= max {
			break
		}
		if ctx != nil && ctx.Err() != nil {
			break
		}
		r.retries.Add(1)
		if r.OnRetry != nil {
			r.OnRetry(attempt, method, err)
		}
		if d := r.Policy.backoff(attempt); d > 0 {
			if r.Sleep != nil {
				r.Sleep(d)
			} else {
				time.Sleep(d)
			}
		}
		var resp []byte
		var rerr error
		if resp, rerr = r.T.CallCtx(ctx, method, payload); rerr == nil {
			r.healed.Add(1)
			return resp, nil
		}
		err = rerr
	}
	return nil, fmt.Errorf("rpc: call not healed after retries: %w", err)
}

// NewCountingRetrier builds a Retrier over t that mirrors every retry
// decision into reg's "rpc.retries" counter, so transport-level healing
// shows up on the exported metrics surface alongside the pool counters.
func NewCountingRetrier(t Caller, policy RetryPolicy, reg *telemetry.Registry) *Retrier {
	retries := reg.Counter("rpc.retries")
	return &Retrier{
		T:       t,
		Policy:  policy,
		OnRetry: func(int, byte, error) { retries.Inc() },
	}
}

// Error-frame payload codes. The first byte of a kindError payload names
// the sentinel the error wraps, so errors.Is classification survives the
// wire; the rest is the message.
const (
	errCodeGeneric byte = iota
	errCodeServerDead
	errCodeTransient
	errCodeDeadline
	errCodeOverloaded
	errCodeDegraded
)

// encodeErrorPayload renders a handler error for the wire.
func encodeErrorPayload(err error) []byte {
	code := errCodeGeneric
	switch {
	case errors.Is(err, ErrServerDead):
		code = errCodeServerDead
	case errors.Is(err, ErrTransient):
		code = errCodeTransient
	case errors.Is(err, ErrDeadlineExceeded):
		code = errCodeDeadline
	case errors.Is(err, ErrOverloaded):
		code = errCodeOverloaded
	case errors.Is(err, ErrServerDegraded):
		code = errCodeDegraded
	}
	msg := err.Error()
	out := make([]byte, 1+len(msg))
	out[0] = code
	copy(out[1:], msg)
	return out
}

// decodeRemoteError rebuilds a client-side error from an error frame.
// Payloads from pre-code peers (or empty ones) decode as generic errors
// with the whole payload as the message.
func decodeRemoteError(method byte, payload []byte) *RemoteError {
	if len(payload) == 0 {
		return &RemoteError{Method: method}
	}
	code, msg := payload[0], string(payload[1:])
	re := &RemoteError{Method: method, Message: msg}
	switch code {
	case errCodeServerDead:
		re.sentinel = ErrServerDead
	case errCodeTransient:
		re.sentinel = ErrTransient
	case errCodeDeadline:
		re.sentinel = ErrDeadlineExceeded
	case errCodeOverloaded:
		re.sentinel = ErrOverloaded
	case errCodeDegraded:
		re.sentinel = ErrServerDegraded
	case errCodeGeneric:
	default:
		// Unknown code: keep every byte so nothing is silently lost.
		re.Message = string(payload)
	}
	return re
}
