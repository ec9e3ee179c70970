// Frame codec: the length-prefixed wire format shared by client and
// server.
//
// Wire format (big endian):
//
//	frame  = kind(1) method(1) id(8) len(4) payload(len)
//	kind   = 1 request | 2 response | 3 error; a request's kind also
//	         carries flag 0x40 (budget) and flag 0x80 (traced)
//	error payload = code(1) message(len-1)
//	request payload = [budget-ns(8)] [trace(8) span(8)] request-payload
//
// A request's payload starts with the metadata its flags name, budget
// first: 8 bytes with the budget flag, 16 with the trace flag, 24 with
// both. A stream is frames back to back and nothing else: the frames a
// sender packs into one write (batcher.go) are read one by one, like
// frames written one at a time.
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
	kindRequest  = 1
	kindResponse = 2
	kindError    = 3
	// flagBudget and flagTraced are a request's flags: its payload starts
	// with a deadline budget, a span identity, or both.
	flagBudget = 0x40
	flagTraced = 0x80
)

// frameHeaderLen is the fixed kind/method/id/len prefix of every frame.
const frameHeaderLen = 14

// traceHeaderLen is the trace(8) span(8) prefix of a traced request.
const traceHeaderLen = 16

// budgetHeaderLen is the remaining-deadline-budget(8) prefix of a budget
// request (signed nanoseconds, big endian; always > 0 on the wire — an
// exhausted budget fails client-side before a frame is built).
const budgetHeaderLen = 8

// requestMeta reads a request's flags: which metadata its payload starts
// with (budget first, then trace) and how long that prefix is. ok is
// false for every non-request kind.
func requestMeta(kind byte) (budgeted, traced bool, prefix int, ok bool) {
	if kind&^(flagBudget|flagTraced) != kindRequest {
		return false, false, 0, false
	}
	budgeted, traced = kind&flagBudget != 0, kind&flagTraced != 0
	if budgeted {
		prefix += budgetHeaderLen
	}
	if traced {
		prefix += traceHeaderLen
	}
	return budgeted, traced, prefix, true
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

// frameScratch is what writing one frame alone needs besides the payload:
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

// appendFrame appends e's fixed header, the metadata prefix its kind
// calls for and e's head — everything of the frame except e.payload,
// which the caller appends or writes straight after.
func appendFrame(buf []byte, e *sendEntry) []byte {
	budgeted, traced, prefix, _ := requestMeta(e.kind)
	buf = append(buf, e.kind, e.method)
	buf = binary.BigEndian.AppendUint64(buf, e.id)
	buf = binary.BigEndian.AppendUint32(buf, uint32(prefix+e.payloadLen()))
	if budgeted {
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.budget))
	}
	if traced {
		buf = binary.BigEndian.AppendUint64(buf, e.sc.Trace)
		buf = binary.BigEndian.AppendUint64(buf, e.sc.Span)
	}
	return append(buf, e.head[:e.headLen]...)
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

// writeFrame writes e in a write of its own. A frame past
// frameCoalesceMax leaves from e.payload where it lies, so the caller's
// bytes reach the kernel without a copy.
func writeFrame(w io.Writer, e *sendEntry) error {
	if limit := MaxPayload - prefixLen(e.kind); e.payloadLen() > limit {
		return fmt.Errorf("rpc: payload %d exceeds max %d", e.payloadLen(), limit)
	}
	fs := framePool.Get().(*frameScratch)
	buf := appendFrame(fs.hdr[:0], e)
	var err error
	if e.payloadLen() > frameCoalesceMax {
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

// readBufSize is the read buffer each end of a connection reads frames
// through: a run of small frames that fits it arrives in one read, while
// a payload of at least its size is read past it, straight into where it
// is going (bufio reads directly once its buffer is empty).
const readBufSize = 4 << 10

// readStep is what readPayload commits before the first payload byte
// has arrived. A frame's header may claim up to MaxPayload; only bytes
// that arrive make the buffer grow, so a peer that sends a bare header
// holds one step of the receiver's memory, not the length it claims.
const readStep = 64 << 10

// readHeader reads one frame header into hdr, scratch of at least
// frameHeaderLen bytes that the read loop owns, and refuses a length past
// MaxPayload. The payload is left on r: the read loop decides where it
// goes — a new slice (readPayload), a caller's destination, or a
// Receiver — once it knows whose frame it is.
func readHeader(r io.Reader, hdr []byte) (frameHeader, error) {
	if _, err := io.ReadFull(r, hdr[:frameHeaderLen]); err != nil {
		return frameHeader{}, err
	}
	h := frameHeader{
		kind:   hdr[0],
		method: hdr[1],
		id:     binary.BigEndian.Uint64(hdr[2:10]),
		length: binary.BigEndian.Uint32(hdr[10:14]),
	}
	if h.length > MaxPayload {
		return frameHeader{}, fmt.Errorf("rpc: frame length %d exceeds max", h.length)
	}
	return h, nil
}

// readPayload reads a frame's n payload bytes into a new slice, which
// belongs to the caller; on an error no payload is returned. The slice
// starts at readStep (or n, if less) and, each time it fills, grows to
// four times what has arrived: it holds at most four times the bytes the
// peer has sent, or one step before any has, and growing four-fold keeps
// the bytes copied on the way in to a third of the payload.
func readPayload(r io.Reader, n uint32) ([]byte, error) {
	buf := make([]byte, min(int(n), readStep))
	for got := 0; ; {
		k, err := io.ReadFull(r, buf[got:])
		if got += k; err != nil {
			return nil, err
		}
		if got == int(n) {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(int(n)-got, 3*got))...)
	}
}
