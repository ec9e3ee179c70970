package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/lmp-project/lmp/internal/rpc"
)

var clockBase = time.Now()

// now reads the monotonic clock as nanoseconds since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// span is one recorded interval. The spans of one request share op; a
// root span has parent 0.
type span struct {
	name       string
	op         uint64
	id, parent uint32
	start, end int64
}

type interval struct{ start, end int64 }

// unionLen is the length of the part of [lo, hi) that the intervals
// cover; overlapping and nested intervals count once. It sorts iv.
func unionLen(iv []interval, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var covered int64
	edge := lo
	for _, v := range iv {
		s, e := max(v.start, edge), min(v.end, hi)
		if e > s {
			covered += e - s
			edge = e
		}
	}
	return covered
}

// maxSpans bounds the raw spans one caller keeps for the span file. The
// histograms below see every traced op; only the file is a prefix.
const maxSpans = 1 << 15

// tracer is one caller's trace state for the traced round. Only that
// caller's goroutine touches it: the seam below runs its issue stamp in
// CallAsyncCtx and its completion stamp in the future's Then hook, both
// on the goroutine that waits for the op.
type tracer struct {
	spans []span
	opSeq uint64
	kids  []interval

	self, covered, call   hist // per op: view self, union of rpc.call children; per call
	localRead, remoteRead hist // pool path: root read spans by owner
	calls                 uint64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, maxSpans)} }

func (t *tracer) begin() { t.kids = t.kids[:0] }

// child records one rpc.call span of the op in flight.
func (t *tracer) child(start, end int64) { t.kids = append(t.kids, interval{start, end}) }

// end closes the op's root span. local says whether a pool read was
// served by the issuing server's own memory.
func (t *tracer) end(name string, start, end int64, isRead, local bool) {
	t.opSeq++
	if len(t.spans)+1+len(t.kids) <= maxSpans {
		t.spans = append(t.spans, span{name: name, op: t.opSeq, id: 1, start: start, end: end})
		for i, k := range t.kids {
			t.spans = append(t.spans, span{name: "rpc.call", op: t.opSeq, id: uint32(i + 2), parent: 1, start: k.start, end: k.end})
		}
	}
	if len(t.kids) > 0 {
		for _, k := range t.kids {
			t.call.add(k.end - k.start)
		}
		t.calls += uint64(len(t.kids))
		u := unionLen(t.kids, start, end)
		t.covered.add(u)
		t.self.add(end - start - u)
	}
	if isRead {
		if local {
			t.localRead.add(end - start)
		} else {
			t.remoteRead.add(end - start)
		}
	}
}

type tracerKey struct{}

func withTracer(t *tracer) context.Context {
	return context.WithValue(context.Background(), tracerKey{}, t)
}

// seamCaller is the harness's span at the one seam the wire path offers:
// daemon.WrapCaller(seamCaller{client}) puts it between daemon.Client's
// encode/decode and the real rpc.Client, where it stamps issue →
// future-resolved for every call made under a context that carries a
// tracer. Without one (set-up, untraced rounds) it only forwards.
type seamCaller struct{ c *rpc.Client }

func (s seamCaller) Call(method byte, payload []byte) ([]byte, error) {
	return s.c.Call(method, payload)
}

func (s seamCaller) CallCtx(ctx context.Context, method byte, payload []byte) ([]byte, error) {
	if tracerOf(ctx) == nil {
		return s.c.CallCtx(ctx, method, payload)
	}
	return s.CallAsyncCtx(ctx, method, payload).WaitCtx(ctx)
}

func (s seamCaller) CallAsyncCtx(ctx context.Context, method byte, payload []byte) *rpc.Future {
	t := tracerOf(ctx)
	if t == nil {
		return s.c.CallAsyncCtx(ctx, method, payload)
	}
	start := now()
	return s.c.CallAsyncCtx(ctx, method, payload).Then(func(p []byte, err error) ([]byte, error) {
		t.child(start, now())
		return p, err
	})
}

func tracerOf(ctx context.Context) *tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey{}).(*tracer)
	return t
}

// spanDir is where the span files go, relative to the working directory,
// which run.sh makes the checkout's root.
var spanDir = filepath.Join("bench", "out")

// writeSpans writes the callers' spans to spanDir/spans-<workload>.json.
func writeSpans(workload string, tracers []*tracer) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spanDir, "spans-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	first := true
	for c, t := range tracers {
		for _, s := range t.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n{\"name\":%q,\"caller\":%d,\"op\":%d,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}",
				s.name, c, s.op, s.id, s.parent, s.start, s.end)
		}
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
