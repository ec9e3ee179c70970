// Package telemetry provides the lightweight counters, gauges, and
// histograms shared by the LMP runtime, the migration/sizing policies, and
// the benchmark harness. All types are safe for concurrent use and their
// zero values are ready to use.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// cellsPerLane is the internal sub-striping factor for Counter and
// StripedCounter: each logical count is spread across this many padded
// cells, indexed by the writer's current P (see laneHint). A single
// shared atomic serializes every writing core on one cache line; with
// per-P cells, concurrent increments proceed in parallel and the (cold)
// read side folds the cells. Sixteen cells cover common core counts;
// larger machines wrap and share cells, which only costs locality.
const (
	cellsPerLane = 16
	cellMask     = cellsPerLane - 1
)

// Counter is a monotonically increasing count. Increments land in a
// per-P padded cell so hot paths incrementing the same counter from
// many cores never contend on one cache line; Value folds the cells.
type Counter struct {
	cells [cellsPerLane]stripedLane
}

// Add increments the counter by n.
//
//lmp:hotpath
func (c *Counter) Add(n uint64) { c.cells[laneHint()&cellMask].v.Add(n) }

// Inc increments the counter by one.
//
//lmp:hotpath
func (c *Counter) Inc() { c.Add(1) }

// AddAt increments the counter by n from inside a BeginUpdate/EndUpdate
// section, where p is the pinned P id BeginUpdate returned. When p
// addresses a private cell the increment is a plain add — exclusivity
// while pinned makes it safe (see lane_fast.go); beyond the cell range
// (GOMAXPROCS > cellsPerLane) it falls back to a shared atomic add, so
// the counter never loses increments on larger machines.
//
//lmp:hotpath
func (c *Counter) AddAt(p int, n uint64) {
	if uint(p) < cellsPerLane {
		c.cells[p].add(n)
		return
	}
	c.cells[p&cellMask].v.Add(n)
}

// Value reports the current count.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//lmp:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
//
//lmp:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records a distribution in exponential buckets: bucket i covers
// [2^i, 2^(i+1)). It is sized for nanosecond latencies and byte sizes.
type Histogram struct {
	mu      sync.Mutex
	buckets [64]uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// Observe records one sample. Non-positive samples land in bucket 0.
//
//lmp:hotpath
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	if v >= 1 {
		i = int(math.Log2(v))
		if i > 63 {
			i = 63
		}
	}
	h.buckets[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean reports the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// HistogramSnapshot is a consistent point-in-time view of a histogram —
// every field taken under one lock, unlike separate Count/Mean/Max calls
// which can interleave with concurrent Observes. Chaos failure reports
// embed snapshots so a replayed seed renders identical statistics.
type HistogramSnapshot struct {
	Count    uint64
	Sum      float64
	Min, Max float64
	Buckets  [64]uint64
}

// Mean reports the snapshot's sample mean, or 0 with no samples.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) from the snapshot's
// buckets: the upper bound of the bucket containing it, clamped to the
// observed maximum so a distribution of identical small samples (e.g.
// all zeros, which land in bucket 0 covering [0,2)) reports the sample
// itself rather than the bucket boundary.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum > target {
			ub := math.Exp2(float64(i + 1))
			if ub > s.Max {
				ub = s.Max
			}
			return ub
		}
	}
	return s.Max
}

// Snapshot captures the histogram's state atomically.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Buckets: h.buckets,
	}
}

// Quantile estimates the q-th quantile (q in [0,1]) from the buckets,
// returning the upper bound of the bucket containing it clamped to the
// observed maximum.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

// Reset zeroes the histogram: buckets, count, sum, and the min/max
// watermarks.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets = [64]uint64{}
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
}

// stripedLane is a padded counter cell. 128 bytes — two cache lines —
// keeps neighbouring cells fully decoupled: 64 bytes would put the
// counter words in distinct lines, but x86's adjacent-line prefetcher
// moves lines in 128-byte pairs, so 64-byte spacing still ping-pongs
// under concurrent writers.
type stripedLane struct {
	v atomic.Uint64
	_ [120]byte
}

// StripedCounter is a monotonically increasing counter split across
// semantic lanes. Hot paths that already know a natural partition index
// (a cache shard, a stripe, an issuing server) pass it as the lane so
// the per-partition breakdown stays readable via Lane. Within each
// lane, increments are further spread across per-P padded cells (like
// Counter), because a "lane" such as an issuing server may itself be
// driven by many goroutines at once — a skewed workload hammering one
// lane would otherwise serialize on that lane's cache line.
type StripedCounter struct {
	lanes int
	cells []stripedLane // lanes × cellsPerLane, lane-major
}

// newStripedCounter returns a counter with n lanes (min 1).
func newStripedCounter(n int) *StripedCounter {
	if n < 1 {
		n = 1
	}
	return &StripedCounter{lanes: n, cells: make([]stripedLane, n*cellsPerLane)}
}

// Add increments the counter by n under the given semantic lane. Any
// lane value is safe; it is reduced modulo the lane count (callers
// normally pass an in-range partition index, so the division is off
// the common path).
//
//lmp:hotpath
func (s *StripedCounter) Add(lane int, n uint64) {
	if lane < 0 {
		lane = -lane
	}
	if lane >= s.lanes {
		lane %= s.lanes
	}
	s.cells[lane*cellsPerLane+laneHint()&cellMask].v.Add(n)
}

// AddAt is Add from inside a BeginUpdate/EndUpdate section; p is the
// pinned P id. See Counter.AddAt for the exclusivity argument and the
// large-machine fallback.
//
//lmp:hotpath
func (s *StripedCounter) AddAt(p, lane int, n uint64) {
	if lane < 0 {
		lane = -lane
	}
	if lane >= s.lanes {
		lane %= s.lanes
	}
	base := lane * cellsPerLane
	if uint(p) < cellsPerLane {
		s.cells[base+p].add(n)
		return
	}
	s.cells[base+(p&cellMask)].v.Add(n)
}

// Value reports the counter total across all lanes.
func (s *StripedCounter) Value() uint64 {
	var total uint64
	for i := range s.cells {
		total += s.cells[i].v.Load()
	}
	return total
}

// Lanes reports the lane count.
func (s *StripedCounter) Lanes() int { return s.lanes }

// Lane reports one lane's count. When lanes map to a real partition (a
// server, a stripe) this exposes the per-partition breakdown — e.g. the
// per-issuer traffic matrix — not just the folded total.
func (s *StripedCounter) Lane(i int) uint64 {
	if i < 0 {
		i = -i
	}
	if i >= s.lanes {
		i %= s.lanes
	}
	base := i * cellsPerLane
	var total uint64
	for j := base; j < base+cellsPerLane; j++ {
		total += s.cells[j].v.Load()
	}
	return total
}

// Reset zeroes every lane.
func (s *StripedCounter) Reset() {
	for i := range s.cells {
		s.cells[i].v.Store(0)
	}
}

// Registry is a named collection of metrics for inspection and dumping.
// Lookups of existing metrics are lock-free, so a registry can sit on a
// runtime hot path; callers with a fixed metric set should still resolve
// the pointer once and reuse it.
type Registry struct {
	counters sync.Map // string → *Counter
	gauges   sync.Map // string → *Gauge
	hists    sync.Map // string → *Histogram
	striped  sync.Map // string → *StripedCounter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := r.counters.LoadOrStore(name, &Counter{})
	return c.(*Counter)
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges.Load(name); ok {
		return g.(*Gauge)
	}
	g, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return g.(*Gauge)
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists.Load(name); ok {
		return h.(*Histogram)
	}
	h, _ := r.hists.LoadOrStore(name, &Histogram{})
	return h.(*Histogram)
}

// Striped returns (creating if needed) the named striped counter with
// lanes lanes. The lane count is fixed at first creation; later calls
// return the existing counter regardless of the lanes argument.
func (r *Registry) Striped(name string, lanes int) *StripedCounter {
	if s, ok := r.striped.Load(name); ok {
		return s.(*StripedCounter)
	}
	s, _ := r.striped.LoadOrStore(name, newStripedCounter(lanes))
	return s.(*StripedCounter)
}

// Snapshot renders all metrics as sorted "name value" lines.
func (r *Registry) Snapshot() []string {
	var lines []string
	r.counters.Range(func(n, c any) bool {
		lines = append(lines, fmt.Sprintf("counter %s %d", n, c.(*Counter).Value()))
		return true
	})
	r.gauges.Range(func(n, g any) bool {
		lines = append(lines, fmt.Sprintf("gauge %s %d", n, g.(*Gauge).Value()))
		return true
	})
	r.hists.Range(func(n, h any) bool {
		hh := h.(*Histogram)
		lines = append(lines, fmt.Sprintf("histogram %s count=%d mean=%.1f p99=%.0f", n, hh.Count(), hh.Mean(), hh.Quantile(0.99)))
		return true
	})
	r.striped.Range(func(n, s any) bool {
		lines = append(lines, fmt.Sprintf("counter %s %d", n, s.(*StripedCounter).Value()))
		return true
	})
	sort.Strings(lines)
	return lines
}
