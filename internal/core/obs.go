package core

import (
	"context"
	"fmt"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// Observability for the data path: per-op spans recorded into a bounded
// ring, sampled latency histograms, and always-on per-server /
// per-stripe traffic counters.
//
// The design constraint is the hot path: Read/Write must stay
// allocation-free and within a few percent of the uninstrumented cost.
// So the split is:
//
//   - Traffic counters (per class, per owning server, per stripe) are
//     always on — each is one uncontended striped atomic add.
//   - Spans and latency histograms are sampled: by default one op in 64
//     on average starts a span (every op does when the caller's context
//     already carries one — an explicitly traced request is never
//     dropped). The sampling decision is a per-P counting cell
//     (telemetry.Sampler), so it costs a few nanoseconds and shares no
//     state between cores; one global "every Nth op" counter would put
//     a contended atomic on every operation. A sampled op costs two
//     clock reads, one ring publication, and one histogram observe;
//     none of it allocates.
//   - Child spans (cache fill, coherence invalidation, recovery, WC
//     flush) are recorded only when the operation's SpanContext is live,
//     threaded explicitly as values through the internal call chain —
//     never via context.WithValue, which would allocate per op.

// TraceConfig configures per-op tracing. The zero value enables tracing
// with the defaults (one op in 64 sampled per issuing server); see the
// fields for the knobs. Span timestamps come from Config.Clock.
type TraceConfig struct {
	// Disabled turns per-op tracing (spans, latency histograms, slow-op
	// classification) off entirely. Traffic counters stay on.
	Disabled bool
	// RingSize bounds retained spans (default 4096).
	RingSize int
	// SampleEvery traces one op in N per CPU (default 64; 1 traces
	// every op). Ops whose context already carries a span are always
	// traced.
	SampleEvery int
	// SlowOpNS is the slow-op threshold in nanoseconds (default 10ms);
	// negative disables slow-op classification.
	SlowOpNS int64
	// OnSlowOp, if set, receives every recorded span at or above the
	// slow-op threshold, synchronously on the goroutine of the operation
	// that completed it: it must be fast and must not call back into the
	// pool.
	OnSlowOp func(telemetry.Span)
}

// Op kinds index the latency histograms and static span names.
const (
	trRead = iota
	trWrite
	trReadV
	trWriteV
	trKinds
)

var opNames = [trKinds]string{"pool.read", "pool.write", "pool.readv", "pool.writev"}
var latNames = [trKinds]string{"pool.latency.read", "pool.latency.write", "pool.latency.readv", "pool.latency.writev"}

// obsState is the pool's tracing state; nil when TraceConfig.Disabled.
type obsState struct {
	tracer  *telemetry.Tracer
	sampler *telemetry.Sampler
	lat     [trKinds]*telemetry.Histogram
	slowOps *telemetry.Counter
}

// DefaultSampleEvery is the default per-op trace sampling period.
const DefaultSampleEvery = 64

// initObs builds the tracing state and the always-on traffic counters.
// Called from New after the nodes exist.
func (p *Pool) initObs() {
	n := len(p.nodes)
	p.srvOps = make([]*telemetry.StripedCounter, n)
	p.srvBytes = make([]*telemetry.StripedCounter, n)
	for i := 0; i < n; i++ {
		// Lane = issuing server, so Lane(j) of server i's counter is the
		// (issuer j → owner i) cell of the traffic matrix.
		p.srvOps[i] = p.metrics.Striped(fmt.Sprintf("pool.server.ops.%d", i), n)
		p.srvBytes[i] = p.metrics.Striped(fmt.Sprintf("pool.server.bytes.%d", i), n)
	}
	p.stripeOps = p.metrics.Striped("pool.stripe.ops", len(p.stripes))

	tc := p.cfg.Trace
	if tc.Disabled {
		return
	}
	if tc.SampleEvery <= 0 {
		tc.SampleEvery = DefaultSampleEvery
	}
	o := &obsState{
		tracer: telemetry.NewTracer(telemetry.TracerConfig{
			RingSize: tc.RingSize,
			SlowOpNS: tc.SlowOpNS,
			Clock:    p.cfg.Clock,
			OnSlowOp: tc.OnSlowOp,
		}),
		sampler: telemetry.NewSampler(uint64(tc.SampleEvery)),
		slowOps: p.metrics.Counter("pool.slow_ops"),
	}
	for k := 0; k < trKinds; k++ {
		o.lat[k] = p.metrics.Histogram(latNames[k])
	}
	p.obs = o
}

// shouldTrace decides whether one public pool operation starts a span,
// returning the parent from ctx (zero for a sampled root). It
// deliberately returns only the 16-byte SpanContext: the untraced
// outcome — 63 ops in 64 — must not pay for zeroing and copying a full
// Span struct through the wrapper, which measured as real ns/op on the
// cached read path. Callers construct the Span (via startOp) only on
// the traced branch.
func (p *Pool) shouldTrace(ctx context.Context) (telemetry.SpanContext, bool) {
	o := p.obs
	if o == nil {
		return telemetry.SpanContext{}, false
	}
	parent := telemetry.SpanFromContext(ctx)
	if parent.Traced() || o.sampler.Hit() {
		return parent, true
	}
	return telemetry.SpanContext{}, false
}

// startOp opens the root span for a traced public operation. Only
// called after shouldTrace said yes, so p.obs is non-nil.
func (p *Pool) startOp(parent telemetry.SpanContext, from addr.ServerID, kind int) telemetry.Span {
	sp := p.obs.tracer.Begin(parent, opNames[kind])
	sp.Server = int(from)
	return sp
}

// endOp completes a root op span and feeds the op-kind latency
// histogram.
func (p *Pool) endOp(sp *telemetry.Span, kind, bytes int, err error) {
	o := p.obs
	sp.Bytes = bytes
	sp.Err = err != nil
	if o.tracer.End(sp) {
		o.slowOps.Inc()
	}
	o.lat[kind].Observe(float64(sp.DurationNS))
}

// beginChild opens a child span under sc when the operation is traced;
// ok is false otherwise. Internal layers call this with the SpanContext
// value threaded from their caller.
func (p *Pool) beginChild(sc telemetry.SpanContext, op string) (telemetry.Span, bool) {
	o := p.obs
	if o == nil || !sc.Traced() {
		return telemetry.Span{}, false
	}
	return o.tracer.Begin(sc, op), true
}

// endChild completes a child span.
func (p *Pool) endChild(sp *telemetry.Span, bytes int, err error) {
	sp.Bytes = bytes
	sp.Err = err != nil
	if p.obs.tracer.End(sp) {
		p.obs.slowOps.Inc()
	}
}

// vecBytes sums a vectored operation's payload for span accounting.
func vecBytes(vecs []Vec) int {
	n := 0
	for i := range vecs {
		n += len(vecs[i].Data)
	}
	return n
}

// TraceSpans returns the retained completed spans, oldest first. Empty
// when tracing is disabled.
func (p *Pool) TraceSpans() []telemetry.Span {
	if p.obs == nil {
		return nil
	}
	return p.obs.tracer.Spans()
}

// TracePublished reports how many spans have ever been recorded
// (including ones the ring has overwritten).
func (p *Pool) TracePublished() uint64 {
	if p.obs == nil {
		return 0
	}
	return p.obs.tracer.Published()
}

// SlowOps reports how many recorded spans crossed the slow-op
// threshold.
func (p *Pool) SlowOps() uint64 {
	if p.obs == nil {
		return 0
	}
	return p.obs.tracer.SlowOps()
}
