package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	ref := make([]float64, 200000)
	for i := range ref {
		// Log-normal around 20 µs with a long tail, like a wire op.
		v := int64(math.Exp(rng.NormFloat64()*1.2 + math.Log(20000)))
		ref[i] = float64(v)
		h.add(v)
	}
	sort.Float64s(ref)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := ref[int(q*float64(len(ref)))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f: histogram %.1f, sorted reference %.1f", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 - 1, 1 << 50} {
		lo, hi := histBounds(histIndex(v))
		if v < 1<<histMaxExp && (float64(v) < lo || float64(v) >= hi) {
			t.Errorf("value %d landed in bucket [%g,%g)", v, lo, hi)
		}
	}
}

func TestStreamFollowsSeed(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		for c := 0; c < callers; c++ {
			a, b, other := sp.genStream(1, c), sp.genStream(1, c), sp.genStream(2, c)
			if streamHash(a) != streamHash(b) {
				t.Errorf("%s caller %d: same seed, different streams", sp.name, c)
			}
			if streamHash(a) == streamHash(other) {
				t.Errorf("%s caller %d: seeds 1 and 2 gave the same stream", sp.name, c)
			}
			first, count := sp.partition(c)
			var writes int
			for _, op := range a {
				blk := int64(op &^ opWrite)
				size, own := sp.readSize, sp.wire
				if op&opWrite != 0 {
					size, own = sp.writeSize, true
					writes++
				}
				if blk*blockSize%int64(size) != 0 || (blk+int64(size/blockSize))*blockSize > sp.bufBytes {
					t.Fatalf("%s: op at block %d is not a %d-byte op inside the buffer", sp.name, blk, size)
				}
				if own && (blk < first || blk+int64(size/blockSize) > first+count) {
					t.Fatalf("%s caller %d: op at block %d leaves the partition [%d,%d)", sp.name, c, blk, first, first+count)
				}
			}
			if share := 100 * writes / len(a); share < 4 || share > 96 {
				t.Errorf("%s: %d %% writes; every round needs samples of both op types", sp.name, share)
			}
		}
	}
}

func TestSelfTimeIsParentMinusUnionOfChildren(t *testing.T) {
	cases := []struct {
		kids []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{10, 20}}, 10},
		{[]interval{{10, 30}, {20, 40}}, 30},           // overlapping
		{[]interval{{10, 90}, {20, 30}, {40, 50}}, 80}, // nested
		{[]interval{{50, 60}, {10, 20}}, 20},           // out of order, disjoint
		{[]interval{{-10, 5}, {95, 120}}, 10},          // clipped to the parent
		{[]interval{{10, 20}, {10, 20}, {10, 20}}, 10}, // duplicates
	}
	for _, c := range cases {
		if got := unionLen(c.kids, 0, 100); got != c.want {
			t.Errorf("union of %v within [0,100) = %d, want %d", c.kids, got, c.want)
		}
	}
	// Four parallel chunk calls under one op: self time is what no call covers.
	tr := newTracer()
	tr.begin()
	for _, k := range []interval{{1100, 1900}, {1150, 1800}, {1200, 1950}, {1250, 1700}} {
		tr.child(k.start, k.end)
	}
	tr.end("op.read", 1000, 2000, true, false)
	if got := tr.self.quantile(1); math.Abs(got-150) > 2 {
		t.Errorf("self time %.0f, want 150 (1000 long, children cover 1100..1950)", got)
	}
	if len(tr.spans) != 5 || tr.spans[1].parent != tr.spans[0].id || tr.spans[1].op != tr.spans[0].op {
		t.Errorf("spans %+v: want a root and four children sharing its op", tr.spans)
	}
}

func TestBlocksRoundTripAndDetectCorruption(t *testing.T) {
	buf := make([]byte, 4*blockSize)
	encodeBlocks(buf, 1<<20, 1, 42)
	for i := 0; i < len(buf); i += blockSize {
		w, v, err := verifyBlock(buf[i:], 1<<20+int64(i))
		if err != nil || w != 1 || v != 42 {
			t.Fatalf("block %d: writer %d version %d err %v", i/blockSize, w, v, err)
		}
	}
	if _, _, err := verifyBlock(buf, 1<<20+blockSize); err == nil {
		t.Error("a block read from the wrong offset verified")
	}
	for i := 0; i < blockSize; i++ {
		buf[i] ^= 0x10
		if _, _, err := verifyBlock(buf, 1<<20); err == nil {
			t.Errorf("flipping a bit of byte %d went unnoticed", i)
		}
		buf[i] ^= 0x10
	}
	// A torn block: first half of one write, second half of the next.
	next := make([]byte, blockSize)
	encodeBlocks(next, 1<<20, 1, 43)
	copy(buf[blockSize/2:blockSize], next[blockSize/2:])
	if _, _, err := verifyBlock(buf, 1<<20); err == nil {
		t.Error("a torn block verified")
	}

	// The caller's version check: a stale block in its own partition fails.
	sp := specByName("wire_small")
	c := newCaller(sp, 0, 1)
	encodeBlocks(buf[:blockSize], 0, 0, 1)
	c.versions[0] = 2
	if err := c.verify(buf[:blockSize], 0); err == nil {
		t.Error("a read returning version 1 after version 2 was written verified")
	}
	c.versions[0] = 1
	if err := c.verify(buf[:blockSize], 0); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
}

// TestSmoke drives every workload end to end for one 300 ms round, and
// the traced run on the two workloads that between them cross every
// layer.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < callers {
		t.Skipf("%d CPU: the harness refuses to run", runtime.NumCPU())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(callers))
	spanDir = t.TempDir()
	for i := range specs {
		sp := &specs[i]
		for _, traced := range []bool{false, true} {
			if traced && sp.name != "wire_small" && sp.name != "pool_cold" {
				continue
			}
			var out bytes.Buffer
			err := runChild(config{sp: sp, seed: 1, smoke: true, traced: traced}, &out)
			if errors.Is(err, errListen) {
				t.Skipf("loopback listen forbidden here: %v", err)
			}
			if err != nil {
				t.Errorf("%s traced=%t: %v", sp.name, traced, err)
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%t: last line is not the result: %v", sp.name, traced, err)
			}
			want := len(e2eUnits)
			if traced {
				want = len(layerMetrics)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != want {
				t.Errorf("%s traced=%t: correct %t, attempted %d, failed %d, %d metrics (want %d)",
					sp.name, traced, res.Correct, res.Attempted, res.Failed, len(res.Metrics), want)
			}
			// A layer the workload does not cross reads 0, one it crosses does not.
			if traced {
				if on := res.Metrics["rpc.call_p50_us"].Value > 0; on != sp.wire {
					t.Errorf("%s: rpc.call_p50_us > 0 is %t on a workload with wire=%t", sp.name, on, sp.wire)
				}
				if on := res.Metrics["cache.read_hit_ns"].Value > 0; on != sp.cache {
					t.Errorf("%s: cache.read_hit_ns > 0 is %t on a workload with cache=%t", sp.name, on, sp.cache)
				}
			}
		}
	}
}

// TestContractMatchesHarness keeps BENCHMARK.json and the harness's
// tables from drifting apart.
func TestContractMatchesHarness(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no contract next to the harness: %v", err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("contract lists %d workloads, harness has %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: contract %q, harness %q", i, w.Name, specs[i].name)
		}
	}
	if len(c.EndToEnd) != len(e2eUnits) {
		t.Fatalf("contract lists %d end-to-end metrics, harness prints %d", len(c.EndToEnd), len(e2eUnits))
	}
	for _, m := range c.EndToEnd {
		if e2eUnits[m.Name] != m.Unit {
			t.Errorf("%s: contract unit %q, harness unit %q", m.Name, m.Unit, e2eUnits[m.Name])
		}
	}
	if len(c.PerLayer) != len(layerMetrics) {
		t.Fatalf("contract lists %d per-layer metrics, harness prints %d", len(c.PerLayer), len(layerMetrics))
	}
	for i, m := range c.PerLayer {
		if layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit {
			t.Errorf("per-layer %d: contract %s [%s], harness %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
