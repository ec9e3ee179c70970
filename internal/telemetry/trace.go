package telemetry

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Per-op tracing. A Span is one timed operation (a pool read, a cache
// fill, an RPC request); spans form trees through parent IDs, and the
// tree's root carries a trace ID minted when the outermost span begins.
// Parents cross API boundaries inside a context.Context (ContextWithSpan
// / SpanFromContext) and cross the RPC wire as two explicit uint64s.
//
// The Tracer keeps completed spans in a bounded in-memory ring: old
// spans are overwritten, never flushed synchronously, so tracing can stay
// on in production. Publication is striped across lanes (each with its
// own small ring and mutex) so concurrent End calls from different
// goroutines do not serialize on one lock. Ring storage grows with use:
// a lane's ring is allocated when the first span lands in it, so a
// tracer nobody publishes to holds no span storage, and once every lane
// has published the End path is allocation-free (TestTraceAllocFree).
//
// A root that nobody asked to trace need not be kept at all: a component
// that times every request, as lmpd does, ends an untraced one (a Span
// with no ID) with End, which retains it only when it failed or was slow.

// SpanContext identifies a position in a trace: the trace ID plus the
// currently open span. The zero SpanContext means "not traced"; spans
// begun under it mint a fresh trace.
type SpanContext struct {
	Trace uint64 `json:"trace"`
	Span  uint64 `json:"span"`
}

// Traced reports whether sc belongs to a live trace.
func (sc SpanContext) Traced() bool { return sc.Trace != 0 }

// Span is one completed (or in-flight, before End) operation.
type Span struct {
	// Trace groups the span tree; ID is unique within the Tracer;
	// Parent is the enclosing span's ID (0 for a root).
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Op names the operation ("pool.read", "rpc.server.read", ...).
	Op string `json:"op"`
	// Server is the issuing or serving server, -1 when not applicable.
	Server int `json:"server"`
	// Bytes is the payload size moved by the operation, when known.
	Bytes int `json:"bytes,omitempty"`
	// Start is the clock reading when the span began; DurationNS the
	// elapsed clock at End. The clock is wall time by default and the
	// sim clock when the Tracer was built with one.
	Start      int64 `json:"start_ns"`
	DurationNS int64 `json:"duration_ns"`
	// Err records that the operation failed.
	Err bool `json:"err,omitempty"`
}

// Context returns the SpanContext that makes s the parent of spans
// begun under it.
func (s Span) Context() SpanContext { return SpanContext{Trace: s.Trace, Span: s.ID} }

// Observer receives completed spans synchronously on the operation's
// goroutine: implementations must be fast and must not call back into
// the traced component. OnSpan sees every recorded span; OnSlowOp
// additionally fires for spans at or above the tracer's slow-op
// threshold.
type Observer interface {
	OnSpan(Span)
	OnSlowOp(Span)
}

// TracerConfig configures a Tracer. The zero value picks the defaults.
type TracerConfig struct {
	// RingSize bounds retained spans (rounded up to a power of two
	// across lanes). Default 4096.
	RingSize int
	// SlowOpNS is the slow-op threshold; spans with DurationNS at or
	// above it count as slow and fire Observer.OnSlowOp. Default 10ms.
	// Negative disables slow-op classification.
	SlowOpNS int64
	// Clock supplies timestamps in nanoseconds; nil means wall time.
	// Simulated components inject their sim clock here.
	Clock func() int64
	// Observer, if set, receives every completed span.
	Observer Observer
}

// traceLane is one publication stripe: a small ring with its own lock,
// so concurrent End calls from different goroutines rarely contend. The
// ring is nil until the lane's first span (grow). A lane fills one
// 64-byte cache line, so neighbouring lanes' locks do not share one.
type traceLane struct {
	mu   sync.Mutex
	ring []laneSpan
	next uint64
	_    [24]byte
}

// laneSpan is a retained span and its publication sequence, by which
// Spans merges the lanes.
type laneSpan struct {
	seq uint64
	Span
}

// Tracer records completed spans into a bounded ring buffer.
type Tracer struct {
	clock    func() int64
	slowNS   atomic.Int64
	observer Observer

	nextID atomic.Uint64 // span and trace IDs share one sequence
	pubSeq atomic.Uint64 // global publication order across lanes
	slow   atomic.Uint64

	lanes    []traceLane
	laneMask uint64
	perLane  int // ring slots per lane, allocated on the lane's first span
}

// DefaultRingSize bounds retained spans when TracerConfig.RingSize is 0.
const DefaultRingSize = 4096

// DefaultSlowOpNS is the default slow-op threshold (10ms).
const DefaultSlowOpNS = int64(10 * time.Millisecond)

// wallBase anchors the monotonic clock to wall time once at startup, so
// WallClock can answer with a single monotonic read instead of a full
// time.Now (which materializes both clocks and a Location). Span
// timestamps drift from NTP-adjusted wall time by at most the
// adjustment since process start, which is irrelevant for tracing.
var wallBase = time.Now().UnixNano() - runtime_nanotime()

// WallClock is the default Tracer clock: wall time in nanoseconds.
func WallClock() int64 { return wallBase + runtime_nanotime() }

func pow2AtLeast(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// NewTracer builds a tracer from cfg. It allocates the lanes' headers
// only: each lane's ring is allocated when the first span lands in it.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.SlowOpNS == 0 {
		cfg.SlowOpNS = DefaultSlowOpNS
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock
	}
	lanes := pow2AtLeast(runtime.GOMAXPROCS(0) * 2)
	if lanes > 64 {
		lanes = 64
	}
	perLane := pow2AtLeast((cfg.RingSize + lanes - 1) / lanes)
	if perLane < 16 {
		perLane = 16
	}
	t := &Tracer{
		clock:    cfg.Clock,
		observer: cfg.Observer,
		lanes:    make([]traceLane, lanes),
		laneMask: uint64(lanes - 1),
		perLane:  perLane,
	}
	t.slowNS.Store(cfg.SlowOpNS)
	return t
}

// Begin starts a span as a child of parent; a zero parent mints a new
// trace. The span is not retained until End.
func (t *Tracer) Begin(parent SpanContext, op string) Span {
	id := t.nextID.Add(1)
	s := Span{Trace: parent.Trace, ID: id, Parent: parent.Span, Op: op, Server: -1, Start: t.clock()}
	if s.Trace == 0 {
		s.Trace = id
	}
	return s
}

// Now reads the tracer's clock.
func (t *Tracer) Now() int64 { return t.clock() }

// SetSlowOpNS adjusts the slow-op threshold at runtime (negative
// disables slow-op classification). Safe concurrently with End.
func (t *Tracer) SetSlowOpNS(ns int64) { t.slowNS.Store(ns) }

// End completes s — setting DurationNS from the clock — publishes it
// into the ring, and reports whether it crossed the slow-op threshold.
// Callers fill Server/Bytes/Err on s before calling End.
//
// A span with no ID is an untraced root that Begin never opened: it
// carries Op, Server, Bytes, Err and a Start read from Now. End keeps it
// only when it failed or reached the slow-op threshold; it then gets a
// fresh ID, which is also its trace. Otherwise it costs one clock read
// and leaves nothing behind: no ID, no lane lock, no ring slot.
func (t *Tracer) End(s *Span) (slow bool) {
	s.DurationNS = t.clock() - s.Start
	ns := t.slowNS.Load()
	slow = ns >= 0 && s.DurationNS >= ns
	if s.ID == 0 {
		if !slow && !s.Err {
			return false
		}
		s.ID = t.nextID.Add(1)
		s.Trace = s.ID
	}
	t.publish(s)
	if t.observer != nil {
		t.observer.OnSpan(*s)
	}
	if slow {
		t.slow.Add(1)
		if t.observer != nil {
			t.observer.OnSlowOp(*s)
		}
	}
	return slow
}

// publish retains a completed span, overwriting the lane's oldest.
func (t *Tracer) publish(s *Span) {
	seq := t.pubSeq.Add(1)
	lane := &t.lanes[s.ID&t.laneMask]
	lane.mu.Lock()
	if lane.ring == nil {
		lane.grow(t.perLane)
	}
	lane.ring[lane.next&uint64(len(lane.ring)-1)] = laneSpan{seq: seq, Span: *s}
	lane.next++
	lane.mu.Unlock()
}

// grow allocates the lane's ring, on its first span.
//
//lmp:coldpath
func (l *traceLane) grow(n int) { l.ring = make([]laneSpan, n) }

// Published reports how many spans have ever been recorded (including
// ones the ring has since overwritten).
func (t *Tracer) Published() uint64 { return t.pubSeq.Load() }

// SlowOps reports how many recorded spans crossed the slow-op threshold.
func (t *Tracer) SlowOps() uint64 { return t.slow.Load() }

// Spans returns the retained spans in publication order (oldest first).
// It is safe concurrently with End, observing each lane atomically; a
// lane no span has landed in has no ring and adds nothing.
func (t *Tracer) Spans() []Span {
	var all []laneSpan
	for li := range t.lanes {
		lane := &t.lanes[li]
		lane.mu.Lock()
		n := min(lane.next, uint64(len(lane.ring)))
		all = append(all, lane.ring[:n]...)
		lane.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Span, len(all))
	for i, e := range all {
		out[i] = e.Span
	}
	return out
}

// ctxKey carries a SpanContext through a context.Context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying sc, making it the parent of
// spans begun under the returned context.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanFromContext extracts the caller's SpanContext; a nil context or
// one without a span yields the zero ("not traced") context. The nil
// check is split from the Value lookup so this common fast path stays
// inlinable at call sites that usually pass nil.
func SpanFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	return spanFromValue(ctx)
}

// spanFromValue is kept out of line so SpanFromContext's nil fast path
// stays under the inlining budget (the context.Value walk is the slow
// path either way).
//
//go:noinline
func spanFromValue(ctx context.Context) SpanContext {
	if sc, ok := ctx.Value(ctxKey{}).(SpanContext); ok {
		return sc
	}
	return SpanContext{}
}
