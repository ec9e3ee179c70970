package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 4, 8, 16} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Mean()-6.2) > 1e-9 {
		t.Fatalf("mean = %v, want 6.2", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 16 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(10)
	}
	h.Observe(10000)
	p50 := h.Quantile(0.5)
	if p50 < 10 || p50 > 32 {
		t.Fatalf("p50 = %v, want ~16 (bucket bound)", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 8192 {
		t.Fatalf("p99.9 = %v, want >= 8192", p999)
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	var h Histogram
	h.Observe(5)
	if h.Quantile(-1) == 0 && h.Quantile(2) == 0 {
		t.Fatal("quantiles of a populated histogram returned 0")
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

func TestHistogramNonPositive(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != -5 {
		t.Fatalf("min = %v", h.Min())
	}
}

func TestHistogramMeanProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		var sum float64
		for _, v := range vals {
			h.Observe(float64(v))
			sum += float64(v)
		}
		if len(vals) == 0 {
			return h.Mean() == 0
		}
		return math.Abs(h.Mean()-sum/float64(len(vals))) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads").Add(3)
	if r.Counter("reads").Value() != 3 {
		t.Fatal("counter not shared by name")
	}
	r.Gauge("shared_bytes").Set(42)
	r.Histogram("latency").Observe(100)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d lines: %v", len(snap), snap)
	}
	joined := strings.Join(snap, "\n")
	for _, want := range []string{"counter reads 3", "gauge shared_bytes 42", "histogram latency"} {
		if !strings.Contains(joined, want) {
			t.Errorf("snapshot missing %q:\n%s", want, joined)
		}
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 800 {
		t.Fatalf("counter = %d", r.Counter("c").Value())
	}
	if r.Histogram("h").Count() != 800 {
		t.Fatalf("histogram count = %d", r.Histogram("h").Count())
	}
}

func TestHistogramQuantileUpperBoundBias(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
	}{
		// Bucket 0 covers [0,2): before the clamp fix, all-zero samples
		// reported Exp2(1)=2 for every quantile.
		{name: "all zeros", samples: []float64{0, 0, 0}, q: 0.5, want: 0},
		{name: "all zeros p99", samples: []float64{0, 0, 0}, q: 0.99, want: 0},
		{name: "single sample clamps to max", samples: []float64{100}, q: 0.99, want: 100},
		{name: "identical samples clamp", samples: []float64{10, 10, 10, 10}, q: 0.5, want: 10},
		{name: "bucket bound below max stays", samples: []float64{10, 10, 10, 10000}, q: 0.5, want: 16},
		{name: "empty", samples: nil, q: 0.5, want: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tc.samples {
				h.Observe(v)
			}
			if got := h.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
			if got := h.Snapshot().Quantile(tc.q); got != tc.want {
				t.Fatalf("Snapshot().Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	for _, v := range []float64{-3, 5, 1000} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Min() != -3 || h.Max() != 1000 {
		t.Fatalf("pre-reset state: count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("post-reset state: count=%d mean=%v min=%v max=%v", h.Count(), h.Mean(), h.Min(), h.Max())
	}
	s := h.Snapshot()
	for i, b := range s.Buckets {
		if b != 0 {
			t.Fatalf("bucket %d not cleared: %d", i, b)
		}
	}
	// Watermarks restart from the first post-reset sample, not the
	// pre-reset min/max.
	h.Observe(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatalf("post-reset watermarks: min=%v max=%v, want 7/7", h.Min(), h.Max())
	}
}

func TestStripedCounterLanes(t *testing.T) {
	s := newStripedCounter(4)
	s.Add(0, 1)
	s.Add(1, 10)
	s.Add(5, 100) // wraps to lane 1
	s.Add(-2, 1000)
	if s.Lanes() != 4 {
		t.Fatalf("lanes = %d", s.Lanes())
	}
	if s.Lane(0) != 1 || s.Lane(1) != 110 || s.Lane(2) != 1000 || s.Lane(3) != 0 {
		t.Fatalf("lane values: %d %d %d %d", s.Lane(0), s.Lane(1), s.Lane(2), s.Lane(3))
	}
	if s.Value() != 1111 {
		t.Fatalf("total = %d", s.Value())
	}
}

func TestRegistryStriped(t *testing.T) {
	r := NewRegistry()
	r.Striped("pool.stripe.ops", 8).Add(3, 5)
	if r.Striped("pool.stripe.ops", 2).Value() != 5 {
		t.Fatal("striped counter not shared by name")
	}
	if r.Striped("pool.stripe.ops", 2).Lanes() != 8 {
		t.Fatal("lane count changed on second lookup")
	}
	snap := strings.Join(r.Snapshot(), "\n")
	if !strings.Contains(snap, "counter pool.stripe.ops 5") {
		t.Fatalf("snapshot missing striped counter:\n%s", snap)
	}
}

func TestHistogramSnapshotConsistency(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 4, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Mean() != h.Mean() {
		t.Fatalf("snapshot mean %v, live mean %v", s.Mean(), h.Mean())
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
	// The snapshot is a copy: later observations must not leak into it.
	h.Observe(7)
	if s.Count != 4 {
		t.Fatal("snapshot mutated by a later Observe")
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty snapshot mean not 0")
	}
}
