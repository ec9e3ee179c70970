// The per-connection send batcher. Both sides of the wire write through
// one: the client's request path and the server's reply path each queue
// frames on it, and a single flusher goroutine drains the queue. While a
// conn.Write is in flight every newly queued frame accumulates, so
// batching is opportunistic ("natural"): an idle connection sends a lone
// frame immediately, a busy one coalesces everything that queued during
// the last write into one vectored batch frame — one syscall, one TCP
// segment — and the receiver fans the sub-frames back out. Before each
// flush the flusher yields a bounded number of times so callers that are
// runnable can join the batch.
package rpc

import (
	"encoding/binary"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/lmp-project/lmp/internal/telemetry"
)

const (
	// batchEntryMax bounds the payload size eligible for batching; larger
	// frames go out bare through writeFrame, whose vectored large path
	// beats copying them into the assembly buffer.
	batchEntryMax = 16 << 10
	// maxBatchFrames bounds the sub-frame count of one batch.
	maxBatchFrames = 128
	// maxBatchBytes bounds the assembled size of one batch frame.
	maxBatchBytes = 256 << 10
)

// sendEntry is one queued frame awaiting flush.
type sendEntry struct {
	kind    byte
	method  byte
	id      uint64
	budget  int64 // remaining deadline budget (ns); budget kinds only
	sc      telemetry.SpanContext
	payload []byte
	// call is the server-side request a reply entry answers; retire
	// releases its buffers once the entry has been written or dropped.
	// Nil on the client's request path, whose buffers the future owns.
	call *serverCall
}

// encodedLen is the entry's on-wire size inside a batch.
func (e *sendEntry) encodedLen() int {
	return frameHeaderLen + prefixLen(e.kind) + len(e.payload)
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

	exited chan struct{}

	// flusher-owned scratch, reused across flushes so the steady-state
	// send path does not allocate.
	local []sendEntry
	buf   []byte

	framesSent   atomic.Uint64 // top-level frames written (batches count once)
	batchesSent  atomic.Uint64 // batch frames among framesSent
	batchedSends atomic.Uint64 // sub-frames that rode inside a batch
	maxBatch     atomic.Uint64 // largest sub-frame count of any one batch
}

// newBatcher starts the flusher goroutine; the caller must eventually
// close() the batcher to stop it.
func newBatcher(w io.Writer, onErr func(error)) *batcher {
	b := &batcher{w: w, onErr: onErr, exited: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
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
	retire(b.q)
	b.q = b.q[:0]
	b.mu.Unlock()
}

// retire ends the batcher's hold on entries that have been written or
// dropped: a server reply's request goes back to its pool, and every
// slot forgets its payload so a drained queue pins no buffer.
//
//lmp:hotpath
func retire(entries []sendEntry) {
	for i := range entries {
		if c := entries[i].call; c != nil {
			c.release()
		}
		entries[i] = sendEntry{}
	}
}

func (b *batcher) flushLoop() {
	defer close(b.exited)
	for {
		b.mu.Lock()
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
		failed := b.failed
		b.mu.Unlock()
		if failed {
			retire(b.local) // drain and drop; the connection is gone
			continue
		}
		err := b.writeBatch(b.local)
		retire(b.local)
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

// writeBatch writes the drained entries: runs of small frames coalesce
// into batch envelopes; large frames and a lone frame go out bare.
func (b *batcher) writeBatch(entries []sendEntry) error {
	for start := 0; start < len(entries); {
		e := &entries[start]
		// Grow a run of batchable frames within the count/byte budgets; a
		// frame too large to batch is a run of one.
		end := start + 1
		run := e.encodedLen()
		for len(e.payload) <= batchEntryMax && end < len(entries) && end-start < maxBatchFrames {
			n := &entries[end]
			if len(n.payload) > batchEntryMax || run+n.encodedLen() > maxBatchBytes {
				break
			}
			run += n.encodedLen()
			end++
		}
		if end-start == 1 {
			if err := b.writeOne(e); err != nil {
				return err
			}
			start = end
			continue
		}
		buf := b.buf[:0]
		buf = append(buf, kindBatch, 0)
		buf = binary.BigEndian.AppendUint64(buf, uint64(end-start))
		buf = binary.BigEndian.AppendUint32(buf, uint32(run))
		for i := start; i < end; i++ {
			buf = append(appendFrame(buf, &entries[i]), entries[i].payload...)
		}
		b.buf = buf[:0] // retain capacity for the next flush
		// Count before writing: a caller woken by the reply to a frame in
		// this batch must find the batch in the stats. A failed write
		// overcounts by one on a connection that is dead anyway.
		b.framesSent.Add(1)
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

// writeOne sends a single entry bare, counted before the write for the
// same reason as a batch.
func (b *batcher) writeOne(e *sendEntry) error {
	b.framesSent.Add(1)
	return writeFrame(b.w, e)
}
