package rpc

import (
	"context"
	"errors"
)

// Sentinel errors of the transport layer. They survive the wire: a server
// handler that returns an error wrapping one of these produces a client
// error for which errors.Is reports the same sentinel (the error frame
// carries a one-byte code, see encodeErrorPayload).
var (
	// ErrServerDead reports a call to a peer that is crash-stopped: the
	// pool's failure verdict marked it dead, or the remote side classified
	// the target server as dead. The transport never raises it; it carries
	// it across the wire. Dead is terminal — retrying cannot help; callers
	// should trigger recovery instead.
	ErrServerDead = errors.New("rpc: server dead")
	// ErrTransient reports a transport fault: a dropped or timed-out call
	// whose effect is unknown. The transport never retries; the error
	// reaches the caller, which owns the decision to retry, re-route or
	// give up.
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
	// ErrServerDegraded reports a server that is alive but slow or
	// error-prone: the pool's circuit breaker for it is open and no
	// replica could take the read. The transport never raises it; it
	// carries it across the wire like the other sentinels. Distinct from
	// ErrServerDead — the breaker half-opens and recovers on its own; no
	// repair is triggered.
	ErrServerDegraded = errors.New("rpc: server degraded")
)

// Caller is the blocking call surface: one request/response exchange,
// with and without cancellation. *Client implements it, as does the
// fault-injecting chaos link, so the layers compose; the daemon client
// accepts any Caller so chaos layers can interpose.
type Caller interface {
	Call(method byte, payload []byte) ([]byte, error)
	CallCtx(ctx context.Context, method byte, payload []byte) ([]byte, error)
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
