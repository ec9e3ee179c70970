// The payload buffer pool and the ownership rules of every buffer on the
// wire path. At most three pooled buffers carry one call's payload (rules
// 1, 3 and 4; the server's reply, rule 2, is never one, and a gathered
// request, rule 5, takes none); each has exactly one owner at a time, and
// only that owner gives it back:
//
//  1. Server request buffer. readPayload fills it; the server owns it
//     until the reply frame of that request has been written or dropped —
//     not until the handler returns, because a handler may return (a slice
//     of) its request as the reply. Handlers must not retain payload past
//     return. A request to a method registered with HandleReceive has no
//     request buffer: its Receiver reads the payload off the connection.
//  2. Server reply. The server never recycles a reply: whatever a handler
//     or a Receiver returns — its request, a static or shared slice, a
//     view of the memory a read asks for — is sent and then left alone,
//     and a reply is never adopted because of what it looks like. The
//     connection's flusher writes it after the handler has returned, so a
//     reply that is a view must stay valid while the Server is serving:
//     the connection holds the Server, and so whatever its handlers hold,
//     until its flusher has exited, and Close returns only after that.
//  3. Client reply buffer. readPayload fills it, the Future owns it, and
//     the single waiter gives future and reply back with Future.Release
//     once it has copied the bytes out. A reply nobody releases (the
//     []byte Call and CallCtx return) is ordinary garbage and is never
//     reused. A reply with a destination (Future.Into) has no reply
//     buffer: it is read straight into the destination — unless the read
//     loop took it before Into came, when it gets one under this rule and
//     is copied into the destination at Wait.
//  4. Client request buffer, on a wrapped transport only. Async on any
//     Caller but a *Client assembles head and body in a GetBuffer buffer
//     and hands it to the future (Future.OwnRequest); Release recycles it
//     only when the logical call resolved with a nil error. A successful
//     reply proves the frame left the send queue; after a cancellation, a
//     connection failure or Close the flusher may still hold the queued
//     frame, so on any error the buffer is left to the collector. A
//     wrapper that re-sends a payload after the call it belongs to has
//     succeeded must send a copy.
//  5. Gathered request: no buffer. Async on a *Client copies the request's
//     head (at most 16 bytes) into its queue entry and borrows the body
//     from the caller: the flusher writes header, head and body where
//     they lie — a frame past frameCoalesceMax as one vectored write
//     whose last piece is the caller's slice — and the body goes back to
//     the caller only once the flusher has written its frame or dropped
//     it. A successful reply proves that wherever the server reads the
//     whole request before it succeeds: every Handle method, and a
//     Receiver that reads all of its body, as lmpd's write does. No other
//     completion may return the call first — not a cancellation, not
//     Close, not a connection failure, not an error reply, which a
//     Receiver can send before its body is drained: when a borrowing call
//     fails, its waiter withdraws a frame the flusher has not taken yet
//     from the queue, unsent, and otherwise waits for the write in flight
//     to end before Wait or WaitCtx returns. The success path takes no lock, atomic or
//     channel operation for this. The caller must not change the body
//     until its future has been waited on.
//
// Under the race detector every buffer is overwritten when it is put
// back (see bufpool_race.go), so a use after release shows up as wrong
// bytes in the ownership tests rather than as a rare corruption.
package rpc

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// bufSlack is what a size class holds beyond its power of two: room
	// for the headers that ride in front of a power-of-two payload (the
	// daemon's 8-byte write offset, the 24-byte budget+trace prefix), so
	// a 256 KiB + 8 B request does not land in a 512 KiB buffer.
	bufSlack = 64
	// Size classes are 2^k + bufSlack for k in [minBufShift, maxBufShift]:
	// 128 B up to MaxPayload + 64 B.
	minBufShift   = 6
	maxBufShift   = 24
	numBufClasses = maxBufShift - minBufShift + 1
	// bufClassSlots bounds the free buffers one class keeps. The bulk
	// path's in-flight window is 2 callers x 4 chunks x one write request
	// on the client = 8 buffers of one class (a read's chunk takes none of
	// that size); small classes see a batch's worth.
	bufClassSlots = 32

	// BufferRetainMax bounds the bytes the pool keeps across all classes
	// (free buffers only; a buffer in use belongs to its owner). 8 MiB
	// covers the bulk window above (8 x 256 KiB) several times over; a put
	// that would exceed it drops the buffer to the collector instead.
	BufferRetainMax = 8 << 20
)

// bufClass is one size class: a bounded stack of free buffers.
type bufClass struct {
	mu   sync.Mutex
	n    int
	free [bufClassSlots][]byte
}

// bufferPool is a bounded reserve of free buffers in size classes. The
// zero value is an empty pool.
type bufferPool struct {
	classes  [numBufClasses]bufClass
	retained atomic.Int64 // bytes held in free slots
	hits     atomic.Uint64
	misses   atomic.Uint64
}

// bufPool is the process-wide pool behind GetBuffer and PutBuffer: both
// ends of a connection, and every connection of the process, draw from
// one bounded reserve.
var bufPool bufferPool

// emptyBuf backs every zero-length buffer: non-nil, and with no capacity
// to recycle.
var emptyBuf [0]byte

// bufClassOf returns the index of the smallest class that holds n bytes.
func bufClassOf(n int) int {
	if n <= 1<<minBufShift+bufSlack {
		return 0
	}
	return bits.Len(uint(n-bufSlack-1)) - minBufShift
}

// GetBuffer returns a buffer of length n whose contents are unspecified.
// Up to MaxPayload it comes from the pool (or is allocated at its class's
// capacity, so that PutBuffer can keep it); larger sizes never enter the
// pool. The caller owns the buffer and passes it on or gives it back
// under the rules at the top of this file.
//
//lmp:hotpath
func GetBuffer(n int) []byte { return bufPool.get(n) }

// PutBuffer gives b back. Only a buffer whose capacity is exactly a size
// class is kept — anything else (nil, an oversized buffer, a slice that
// never came from GetBuffer) is left to the collector — and only while
// the class has a free slot and the pool is under BufferRetainMax. The
// caller must own b and must not touch it afterwards.
//
//lmp:hotpath
func PutBuffer(b []byte) { bufPool.put(b) }

// get is GetBuffer on p.
//
//lmp:hotpath
func (p *bufferPool) get(n int) []byte {
	if n == 0 {
		return emptyBuf[:]
	}
	if n > MaxPayload {
		return allocBuffer(n, n)
	}
	ci := bufClassOf(n)
	c := &p.classes[ci]
	c.mu.Lock()
	if c.n == 0 {
		c.mu.Unlock()
		p.misses.Add(1)
		return allocBuffer(n, 1<<(ci+minBufShift)+bufSlack)
	}
	c.n--
	b := c.free[c.n]
	c.free[c.n] = nil
	c.mu.Unlock()
	p.retained.Add(-int64(cap(b)))
	p.hits.Add(1)
	return b[:n]
}

// allocBuffer is get's miss path.
//
//lmp:coldpath
func allocBuffer(n, capacity int) []byte {
	return make([]byte, n, capacity)
}

// put is PutBuffer on p.
//
//lmp:hotpath
func (p *bufferPool) put(b []byte) {
	k := cap(b) - bufSlack
	if k < 1<<minBufShift || k > 1<<maxBufShift || k&(k-1) != 0 {
		return
	}
	b = b[:cap(b)]
	poison(b)
	if p.retained.Add(int64(len(b))) > BufferRetainMax {
		p.retained.Add(-int64(len(b)))
		return
	}
	c := &p.classes[bits.TrailingZeros(uint(k))-minBufShift]
	c.mu.Lock()
	if c.n == bufClassSlots {
		c.mu.Unlock()
		p.retained.Add(-int64(len(b)))
		return
	}
	c.free[c.n] = b
	c.n++
	c.mu.Unlock()
}
