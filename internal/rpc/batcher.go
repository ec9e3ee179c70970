// The per-connection send batcher. Both sides of the wire write through
// one: the client's request path and the server's reply path each queue
// frames on it, and a single flusher goroutine drains the queue. While a
// conn.Write is in flight every newly queued frame accumulates, so
// batching is opportunistic ("natural"): an idle connection sends a lone
// frame immediately, a busy one packs the small frames that queued during
// the last write back to back into one conn.Write — one syscall, one TCP
// segment. A packed run is ordinary frames with nothing around them: the
// receiver reads it through its read buffer frame by frame, as it reads
// frames that were written one at a time. Before each flush the flusher
// yields a bounded number of times so callers that are runnable can join
// the batch.
package rpc

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/lmp-project/lmp/internal/telemetry"
)

const (
	// batchEntryMax bounds the payload size eligible for packing; larger
	// frames go out in a write of their own through writeFrame, whose
	// vectored large path beats copying them into the assembly buffer.
	batchEntryMax = 16 << 10
	// maxBatchFrames bounds the frame count of one packed run.
	maxBatchFrames = 128
	// maxBatchBytes bounds the assembled size of one packed run.
	maxBatchBytes = 256 << 10
)

// headMax bounds a request's head: the bytes a caller names in front of
// its body (a write's 8-byte offset, a read's or a sum's 12-byte range),
// which its queue entry carries by value.
const headMax = 16

// sendEntry is one queued frame awaiting flush. Its payload on the wire
// is head[:headLen] followed by payload.
type sendEntry struct {
	kind    byte
	method  byte
	headLen uint8
	head    [headMax]byte
	id      uint64
	budget  int64 // remaining deadline budget (ns); budget kinds only
	sc      telemetry.SpanContext
	// payload is a request's body or a reply. On the client's gathered
	// path (Async) it is the caller's own slice, borrowed until the
	// flusher has written or dropped the entry.
	payload []byte
}

// payloadLen is the entry's frame payload size, past the metadata prefix.
func (e *sendEntry) payloadLen() int {
	return int(e.headLen) + len(e.payload)
}

// encodedLen is the entry's on-wire size.
func (e *sendEntry) encodedLen() int {
	return frameHeaderLen + prefixLen(e.kind) + e.payloadLen()
}

// batcher serializes frame writes to w through one flusher goroutine.
// enqueue never blocks on the network: it appends under the queue lock
// and rings the doorbell. The zero value is not usable; see newBatcher.
type batcher struct {
	w io.Writer
	// onErr observes the first write failure (the connection is hosed
	// from that point; queued and future frames are dropped). May be nil.
	onErr func(error)

	mu     sync.Mutex
	cond   *sync.Cond
	q      []sendEntry
	closed bool
	failed bool

	// taken counts the queues the flusher has taken, done those it has
	// finished writing or dropping; a withdraw waiting on a taken entry
	// sleeps on drained until done catches up (waiting says one does).
	taken, done uint64
	waiting     int
	drained     sync.Cond

	exited chan struct{}

	// flusher-owned scratch, reused across flushes so the steady-state
	// send path does not allocate.
	local []sendEntry
	buf   []byte

	framesSent   atomic.Uint64 // writes of one frame or one packed run
	batchesSent  atomic.Uint64 // packed runs among framesSent
	batchedSends atomic.Uint64 // frames that rode in a packed run
	maxBatch     atomic.Uint64 // most frames of any one packed run
}

// newBatcher starts the flusher goroutine; the caller must eventually
// close() the batcher to stop it.
func newBatcher(w io.Writer, onErr func(error)) *batcher {
	b := &batcher{w: w, onErr: onErr, exited: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
	b.drained.L = &b.mu
	go b.flushLoop()
	return b
}

// enqueue queues one frame for sending. It returns ErrClosed after
// close() and the first write error after a send failure; in both cases
// the frame is dropped and the caller owns the failure path.
func (b *batcher) enqueue(e sendEntry) error {
	b.mu.Lock()
	if b.closed || b.failed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.q = append(b.q, e)
	if len(b.q) == 1 {
		b.cond.Signal()
	}
	b.mu.Unlock()
	return nil
}

// close stops the flusher after the current flush; still-queued frames
// are dropped (the owning client/server fails their calls). Idempotent.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.cond.Signal()
	b.mu.Unlock()
	<-b.exited
	b.mu.Lock()
	clear(b.q) // dropped: a slot that kept its payload would pin it
	b.q = b.q[:0]
	b.mu.Unlock()
}

// withdraw ends the batcher's hold on the client request id, whose
// caller is about to get its body back after a failure: a frame still in
// the queue is taken out unsent; otherwise the flusher has taken it, and
// withdraw returns once that write has ended or the frame was dropped.
// Only a failed call comes here, so the success path pays nothing for it.
func (b *batcher) withdraw(id uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.q {
		if b.q[i].id == id {
			n := len(b.q) - 1
			copy(b.q[i:], b.q[i+1:])
			b.q[n] = sendEntry{}
			b.q = b.q[:n]
			return
		}
	}
	b.waiting++
	for want := b.taken; b.done < want; {
		b.drained.Wait()
	}
	b.waiting--
}

func (b *batcher) flushLoop() {
	defer close(b.exited)
	for {
		b.mu.Lock()
		// Whatever the last pass took is written or dropped by now.
		if b.done = b.taken; b.waiting > 0 {
			b.drained.Broadcast()
		}
		for len(b.q) == 0 && !b.closed {
			b.cond.Wait()
		}
		if b.closed {
			b.mu.Unlock()
			return
		}
		// Yield passes: give runnable peers a chance to enqueue before
		// this flush commits. On a saturated machine a blocked caller
		// hands the CPU straight to the flusher, so the queue would
		// otherwise never hold more than one frame; a Gosched is far
		// cheaper than a timer and costs a lone caller almost nothing.
		// Keep yielding while the queue is still filling, bounded so a
		// firehose of producers cannot stall the flush indefinitely.
		for i, last := 0, 0; i < 4 && len(b.q) > last; i++ {
			last = len(b.q)
			b.mu.Unlock()
			runtime.Gosched()
			b.mu.Lock()
		}
		b.q, b.local = b.local[:0], b.q
		b.taken++
		failed := b.failed
		b.mu.Unlock()
		if failed {
			clear(b.local) // drain and drop; the connection is gone
			continue
		}
		err := b.writeBatch(b.local)
		clear(b.local) // written: the slots forget their payloads
		if err != nil {
			b.mu.Lock()
			first := !b.failed
			b.failed = true
			b.mu.Unlock()
			if first && b.onErr != nil {
				b.onErr(err)
			}
		}
	}
}

// writeBatch writes the drained entries: a run of small frames is packed
// back to back into one write; a large frame and a lone one go out in a
// write of their own.
func (b *batcher) writeBatch(entries []sendEntry) error {
	for start := 0; start < len(entries); {
		e := &entries[start]
		// Grow a run of packable frames within the count/byte budgets; a
		// frame too large to pack is a run of one.
		end := start + 1
		run := e.encodedLen()
		for e.payloadLen() <= batchEntryMax && end < len(entries) && end-start < maxBatchFrames {
			n := &entries[end]
			if n.payloadLen() > batchEntryMax || run+n.encodedLen() > maxBatchBytes {
				break
			}
			run += n.encodedLen()
			end++
		}
		// Count before writing: a caller woken by the reply to a frame in
		// this write must find it in the stats. A failed write overcounts
		// on a connection that is dead anyway.
		b.framesSent.Add(1)
		if end-start == 1 {
			if err := writeFrame(b.w, e); err != nil {
				return err
			}
			start = end
			continue
		}
		buf := b.buf[:0]
		for i := start; i < end; i++ {
			buf = append(appendFrame(buf, &entries[i]), entries[i].payload...)
		}
		b.buf = buf[:0] // retain capacity for the next flush
		b.batchesSent.Add(1)
		b.batchedSends.Add(uint64(end - start))
		if n := uint64(end - start); n > b.maxBatch.Load() {
			b.maxBatch.Store(n) // flusher-only writer; no CAS needed
		}
		if _, err := b.w.Write(buf); err != nil {
			return err
		}
		start = end
	}
	return nil
}
