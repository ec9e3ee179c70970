// Frame codec: the length-prefixed wire format shared by client and
// server, including the batch envelope that lets the small frames queued
// during one write ride the next conn.Write / one TCP segment.
//
// Wire format (big endian):
//
//	frame  = kind(1) method(1) id(8) len(4) payload(len)
//	kind   = 1 request | 2 response | 3 error | 4 traced request | 5 batch
//	       | 6 budget request | 7 traced budget request
//	error payload = code(1) message(len-1)
//	traced request payload = trace(8) span(8) request-payload(len-16)
//	budget request payload = budget-ns(8) request-payload(len-8)
//	traced budget request payload = budget-ns(8) trace(8) span(8) request-payload(len-24)
//	batch payload = sub-frame* where sub-frame = kind(1) method(1) id(8) len(4) payload(len)
//
// A batch frame's id field carries the sub-frame count, so a decoder can
// cross-check the envelope against its contents; batches never nest, and
// a batch carries at least two sub-frames (a single queued frame is sent
// bare — an envelope around it would only add a second header — and
// decodeBatch rejects a count below two).
package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/lmp-project/lmp/internal/telemetry"
)

const (
	kindRequest             = 1
	kindResponse            = 2
	kindError               = 3
	kindTracedRequest       = 4
	kindBatch               = 5
	kindBudgetRequest       = 6
	kindTracedBudgetRequest = 7
)

// frameHeaderLen is the fixed kind/method/id/len prefix of every frame,
// top-level or batched.
const frameHeaderLen = 14

// traceHeaderLen is the trace(8) span(8) prefix of a traced request.
const traceHeaderLen = 16

// budgetHeaderLen is the remaining-deadline-budget(8) prefix of a budget
// request (signed nanoseconds, big endian; always > 0 on the wire — an
// exhausted budget fails client-side before a frame is built).
const budgetHeaderLen = 8

// requestMeta is the one table of request kinds: which metadata a kind
// embeds as a payload prefix (budget first, then trace) and how long
// that prefix is. ok is false for every non-request kind.
func requestMeta(kind byte) (budgeted, traced bool, prefix int, ok bool) {
	switch kind {
	case kindRequest:
		return false, false, 0, true
	case kindTracedRequest:
		return false, true, traceHeaderLen, true
	case kindBudgetRequest:
		return true, false, budgetHeaderLen, true
	case kindTracedBudgetRequest:
		return true, true, budgetHeaderLen + traceHeaderLen, true
	}
	return false, false, 0, false
}

// prefixLen is the metadata prefix a request kind embeds in its payload.
func prefixLen(kind byte) int {
	_, _, n, _ := requestMeta(kind)
	return n
}

// MaxPayload bounds a frame payload (16 MiB), protecting against corrupt
// length prefixes.
const MaxPayload = 16 << 20

type frameHeader struct {
	kind   byte
	method byte
	id     uint64
	length uint32
}

// frameScratch is what writing one bare frame needs besides the payload:
// the header assembly buffer and the two-element vector a large frame
// goes out through.
type frameScratch struct {
	hdr []byte
	iov [2][]byte
	vec net.Buffers
}

// framePool recycles frame scratch so the per-call frame write is
// allocation-free. Buffers stay small: payloads past frameCoalesceMax
// are written as a vector instead of being copied.
var framePool = sync.Pool{New: func() any {
	return &frameScratch{hdr: make([]byte, 0, 4<<10)}
}}

// frameCoalesceMax bounds the payload size assembled into one buffer.
// Larger payloads skip the copy and go out as one vectored write of
// header and payload (writev on a TCP connection: one syscall, and no
// 14-byte segment ahead of the payload under TCP_NODELAY).
const frameCoalesceMax = 64 << 10

// appendFrame appends e's fixed header and the metadata prefix its kind
// calls for — everything of the frame, bare or inside a batch, except
// the payload, which the caller appends or writes straight after.
func appendFrame(buf []byte, e *sendEntry) []byte {
	budgeted, traced, prefix, _ := requestMeta(e.kind)
	buf = append(buf, e.kind, e.method)
	buf = binary.BigEndian.AppendUint64(buf, e.id)
	buf = binary.BigEndian.AppendUint32(buf, uint32(prefix+len(e.payload)))
	if budgeted {
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.budget))
	}
	if traced {
		buf = binary.BigEndian.AppendUint64(buf, e.sc.Trace)
		buf = binary.BigEndian.AppendUint64(buf, e.sc.Span)
	}
	return buf
}

// decodePrefix is appendFrame's inverse for the metadata prefix: it
// splits a request frame's payload into the deadline budget, the
// caller's span identity and the request payload proper. ok is false
// for a non-request kind or a payload shorter than the kind's prefix.
func decodePrefix(kind byte, payload []byte) (budget int64, sc telemetry.SpanContext, rest []byte, ok bool) {
	budgeted, traced, prefix, ok := requestMeta(kind)
	if !ok || len(payload) < prefix {
		return 0, sc, nil, false
	}
	if budgeted {
		budget = int64(binary.BigEndian.Uint64(payload))
		payload = payload[budgetHeaderLen:]
	}
	if traced {
		sc.Trace = binary.BigEndian.Uint64(payload[0:8])
		sc.Span = binary.BigEndian.Uint64(payload[8:16])
		payload = payload[traceHeaderLen:]
	}
	return budget, sc, payload, true
}

// writeFrame writes e bare (not inside a batch envelope).
func writeFrame(w io.Writer, e *sendEntry) error {
	if limit := MaxPayload - prefixLen(e.kind); len(e.payload) > limit {
		return fmt.Errorf("rpc: payload %d exceeds max %d", len(e.payload), limit)
	}
	fs := framePool.Get().(*frameScratch)
	buf := appendFrame(fs.hdr[:0], e)
	var err error
	if len(e.payload) > frameCoalesceMax {
		fs.iov[0], fs.iov[1] = buf, e.payload
		fs.vec = fs.iov[:]
		_, err = fs.vec.WriteTo(w)
		fs.iov[1] = nil // a failed write leaves the payload referenced
	} else {
		buf = append(buf, e.payload...)
		_, err = w.Write(buf)
	}
	fs.hdr = buf[:0]
	framePool.Put(fs)
	return err
}

// readFrame reads one frame into a pooled buffer, which the caller owns
// (see bufpool.go). The header is read into a smallest-class buffer that
// a short payload then reuses; on any error the buffer goes back and no
// payload is returned.
func readFrame(r io.Reader) (frameHeader, []byte, error) {
	buf := GetBuffer(frameHeaderLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		PutBuffer(buf)
		return frameHeader{}, nil, err
	}
	h := frameHeader{
		kind:   buf[0],
		method: buf[1],
		id:     binary.BigEndian.Uint64(buf[2:10]),
		length: binary.BigEndian.Uint32(buf[10:14]),
	}
	if h.length > MaxPayload {
		PutBuffer(buf)
		return frameHeader{}, nil, fmt.Errorf("rpc: frame length %d exceeds max", h.length)
	}
	if int(h.length) > cap(buf) {
		PutBuffer(buf)
		buf = GetBuffer(int(h.length))
	} else {
		buf = buf[:h.length]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		PutBuffer(buf)
		return frameHeader{}, nil, err
	}
	return h, buf, nil
}

// decodeBatch walks a kindBatch payload, calling visit once per sub-frame
// with the sub-frame's header and payload. The payload slice aliases the
// envelope buffer (zero copy); visitors that retain it must copy. count
// is the envelope's declared sub-frame count (the batch frame's id
// field); a mismatch, a truncated sub-frame, trailing garbage, a nested
// batch, or an oversized sub-length all fail decoding.
func decodeBatch(payload []byte, count uint64, visit func(frameHeader, []byte) error) error {
	if count < 2 {
		return fmt.Errorf("rpc: batch declares %d sub-frames; minimum is 2", count)
	}
	var seen uint64
	for len(payload) > 0 {
		if len(payload) < frameHeaderLen {
			return fmt.Errorf("rpc: truncated batch sub-frame header (%d bytes left)", len(payload))
		}
		h := frameHeader{
			kind:   payload[0],
			method: payload[1],
			id:     binary.BigEndian.Uint64(payload[2:10]),
			length: binary.BigEndian.Uint32(payload[10:14]),
		}
		if h.kind == kindBatch {
			return fmt.Errorf("rpc: nested batch frame")
		}
		if h.length > MaxPayload {
			return fmt.Errorf("rpc: batch sub-frame length %d exceeds max", h.length)
		}
		rest := payload[frameHeaderLen:]
		if uint32(len(rest)) < h.length {
			return fmt.Errorf("rpc: truncated batch sub-frame payload (want %d, have %d)", h.length, len(rest))
		}
		seen++
		if seen > count {
			return fmt.Errorf("rpc: batch carries more than the declared %d sub-frames", count)
		}
		if err := visit(h, rest[:h.length]); err != nil {
			return err
		}
		payload = rest[h.length:]
	}
	if seen != count {
		return fmt.Errorf("rpc: batch declared %d sub-frames, carried %d", count, seen)
	}
	return nil
}
