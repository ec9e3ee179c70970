package model

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/lmp-project/lmp/internal/memsim"
	"github.com/lmp-project/lmp/internal/topology"
)

func vectorBW(t *testing.T, kind topology.Kind, link memsim.Profile, gb int64) BandwidthResult {
	t.Helper()
	res, err := VectorSumBandwidth(VectorSumConfig{
		Deployment:  topology.PaperDeployment(kind, link),
		VectorBytes: gb * memsim.GB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func wantBW(t *testing.T, got BandwidthResult, wantGBps, tol float64, msg string) {
	t.Helper()
	if !got.Feasible {
		t.Fatalf("%s: infeasible: %s", msg, got.Reason)
	}
	g := got.BandwidthBps / 1e9
	if math.Abs(g-wantGBps) > tol*wantGBps {
		t.Fatalf("%s: %.1f GB/s, want %.1f (±%.0f%%)", msg, g, wantGBps, tol*100)
	}
}

// Figure 2: 8GB vector fits entirely in one LMP server's local memory.
func TestFig2Vector8GB(t *testing.T) {
	for _, link := range []memsim.Profile{memsim.Link0(), memsim.Link1()} {
		logical := vectorBW(t, topology.Logical, link, 8)
		wantBW(t, logical, 97, 0.10, "logical "+link.Name)
		if logical.LocalFraction != 1 {
			t.Fatalf("8GB local fraction = %v, want 1", logical.LocalFraction)
		}
		nocache := vectorBW(t, topology.PhysicalNoCache, link, 8)
		wantBW(t, nocache, link.Bandwidth/1e9, 0.10, "no-cache "+link.Name)

		// The headline: up to ~4.7x over Physical no-cache.
		ratio := logical.BandwidthBps / nocache.BandwidthBps
		wantRatio := 97 / (link.Bandwidth / 1e9)
		if math.Abs(ratio-wantRatio) > 0.15*wantRatio {
			t.Fatalf("%s: logical/no-cache = %.2f, want ~%.2f", link.Name, ratio, wantRatio)
		}
	}
	// On Link1 the ratio should be in the paper's 4.7x ballpark.
	logical := vectorBW(t, topology.Logical, memsim.Link1(), 8)
	nocache := vectorBW(t, topology.PhysicalNoCache, memsim.Link1(), 8)
	if r := logical.BandwidthBps / nocache.BandwidthBps; r < 4.2 || r > 5.2 {
		t.Fatalf("Link1 8GB logical/no-cache = %.2f, want ~4.6", r)
	}
}

// Figure 3: 24GB vector still fits one LMP server; physical cache covers
// only a third.
func TestFig3Vector24GB(t *testing.T) {
	link := memsim.Link1()
	logical := vectorBW(t, topology.Logical, link, 24)
	wantBW(t, logical, 97, 0.10, "logical 24GB")
	cache := vectorBW(t, topology.PhysicalCache, link, 24)
	// Warm rep + 8GB cached of each steady rep: ~30 GB/s.
	wantBW(t, cache, 30, 0.15, "physical cache 24GB")
	if r := logical.BandwidthBps / cache.BandwidthBps; r < 2.8 || r > 3.8 {
		t.Fatalf("logical/cache at 24GB = %.2f, want ~3.2-3.4", r)
	}
	nocache := vectorBW(t, topology.PhysicalNoCache, link, 24)
	if r := logical.BandwidthBps / nocache.BandwidthBps; r < 4.2 || r > 5.2 {
		t.Fatalf("logical/no-cache at 24GB = %.2f, want ~4.6", r)
	}
}

// Figure 4: 64GB vector exceeds every local memory; the LMP still serves
// 3/8 locally and wins by ~42% on Link1.
func TestFig4Vector64GB(t *testing.T) {
	link := memsim.Link1()
	logical := vectorBW(t, topology.Logical, link, 64)
	if math.Abs(logical.LocalFraction-0.375) > 1e-9 {
		t.Fatalf("64GB local fraction = %v, want 3/8", logical.LocalFraction)
	}
	cache := vectorBW(t, topology.PhysicalCache, link, 64)
	ratio := logical.BandwidthBps / cache.BandwidthBps
	if ratio < 1.25 || ratio > 1.6 {
		t.Fatalf("logical/cache at 64GB = %.2f, want ~1.4 (paper: 42%%)", ratio)
	}
	// The advantage must not shrink on the slower link (§4.3). In the
	// overlap model both deployments are link-bound at 64GB, so the ratio
	// is link-independent rather than growing; see EXPERIMENTS.md.
	logical0 := vectorBW(t, topology.Logical, memsim.Link0(), 64)
	cache0 := vectorBW(t, topology.PhysicalCache, memsim.Link0(), 64)
	ratio0 := logical0.BandwidthBps / cache0.BandwidthBps
	if ratio < ratio0*0.99 {
		t.Fatalf("advantage shrank with slower link: Link0 %.2f vs Link1 %.2f", ratio0, ratio)
	}
}

// Figure 5: the 96GB vector fits only the logical pool.
func TestFig5Vector96GB(t *testing.T) {
	logical := vectorBW(t, topology.Logical, memsim.Link1(), 96)
	if !logical.Feasible {
		t.Fatalf("logical 96GB infeasible: %s", logical.Reason)
	}
	if logical.BandwidthBps < 20e9 {
		t.Fatalf("logical 96GB bandwidth %.1f GB/s unreasonably low", logical.BandwidthBps/1e9)
	}
	for _, kind := range []topology.Kind{topology.PhysicalCache, topology.PhysicalNoCache} {
		res := vectorBW(t, kind, memsim.Link1(), 96)
		if res.Feasible {
			t.Fatalf("%v ran a 96GB vector on a 64GB pool", kind)
		}
		if !strings.Contains(res.Reason, "exceeds pool capacity") {
			t.Fatalf("reason = %q", res.Reason)
		}
	}
}

// The full grid behind Figures 2-5: every deployment on both links at
// every vector size evaluates without error and serves a local share in
// [0, 1], and only the two physical pools fail to hold the 96GB vector.
func TestPaperGrid(t *testing.T) {
	for _, kind := range []topology.Kind{topology.Logical, topology.PhysicalCache, topology.PhysicalNoCache} {
		for _, link := range []memsim.Profile{memsim.Link0(), memsim.Link1()} {
			for _, gb := range []int64{8, 24, 64, 96} {
				res := vectorBW(t, kind, link, gb)
				name := fmt.Sprintf("%v/%s/%dGB", kind, link.Name, gb)
				if res.LocalFraction < 0 || res.LocalFraction > 1 {
					t.Errorf("%s: local fraction %v outside [0, 1]", name, res.LocalFraction)
				}
				if want := kind == topology.Logical || gb < 96; res.Feasible != want {
					t.Errorf("%s: feasible = %v, want %v (%s)", name, res.Feasible, want, res.Reason)
				}
				if res.Feasible && res.BandwidthBps <= 0 {
					t.Errorf("%s: bandwidth %v", name, res.BandwidthBps)
				}
			}
		}
	}
}

// §4.3: the slower the remote link, the better LMP does relative to
// physical pools — strictly so whenever the vector fits local memory.
func TestSlowerLinkWidensAdvantage(t *testing.T) {
	for _, gb := range []int64{8, 24} {
		r0 := vectorBW(t, topology.Logical, memsim.Link0(), gb).BandwidthBps /
			vectorBW(t, topology.PhysicalNoCache, memsim.Link0(), gb).BandwidthBps
		r1 := vectorBW(t, topology.Logical, memsim.Link1(), gb).BandwidthBps /
			vectorBW(t, topology.PhysicalNoCache, memsim.Link1(), gb).BandwidthBps
		if r1 <= r0 {
			t.Fatalf("%dGB: Link1 advantage %.2f not above Link0 %.2f", gb, r1, r0)
		}
	}
	// At 64GB (link-bound on both sides) it must at least not shrink.
	r0 := vectorBW(t, topology.Logical, memsim.Link0(), 64).BandwidthBps /
		vectorBW(t, topology.PhysicalNoCache, memsim.Link0(), 64).BandwidthBps
	r1 := vectorBW(t, topology.Logical, memsim.Link1(), 64).BandwidthBps /
		vectorBW(t, topology.PhysicalNoCache, memsim.Link1(), 64).BandwidthBps
	if r1 < r0*0.99 {
		t.Fatalf("64GB: advantage shrank with slower link: %.2f -> %.2f", r0, r1)
	}
}

// Ordering invariant across all feasible sizes: Logical >= Physical cache
// >= Physical no-cache.
func TestDeploymentOrdering(t *testing.T) {
	for _, link := range []memsim.Profile{memsim.Link0(), memsim.Link1()} {
		for _, gb := range []int64{8, 24, 64} {
			l := vectorBW(t, topology.Logical, link, gb).BandwidthBps
			c := vectorBW(t, topology.PhysicalCache, link, gb).BandwidthBps
			n := vectorBW(t, topology.PhysicalNoCache, link, gb).BandwidthBps
			if !(l >= c*0.99 && c >= n*0.99) {
				t.Fatalf("%s %dGB: ordering violated: L=%.1f C=%.1f N=%.1f",
					link.Name, gb, l/1e9, c/1e9, n/1e9)
			}
		}
	}
}

// The LRU ablation: with a cyclic scan bigger than the cache, LRU caching
// degrades to no-cache performance (plus fill overhead).
func TestLRUCacheThrashesOnLargeScan(t *testing.T) {
	link := memsim.Link1()
	pinned, err := VectorSumBandwidth(VectorSumConfig{
		Deployment:  topology.PaperDeployment(topology.PhysicalCache, link),
		VectorBytes: 64 * memsim.GB,
		Cache:       PinnedCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	lru, err := VectorSumBandwidth(VectorSumConfig{
		Deployment:  topology.PaperDeployment(topology.PhysicalCache, link),
		VectorBytes: 64 * memsim.GB,
		Cache:       LRUCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lru.BandwidthBps >= pinned.BandwidthBps {
		t.Fatalf("LRU (%.1f) should underperform pinned (%.1f) on a 64GB cyclic scan",
			lru.BandwidthBps/1e9, pinned.BandwidthBps/1e9)
	}
	nocache := vectorBW(t, topology.PhysicalNoCache, link, 64)
	if math.Abs(lru.BandwidthBps-nocache.BandwidthBps) > 0.1*nocache.BandwidthBps {
		t.Fatalf("thrashing LRU %.1f should approximate no-cache %.1f",
			lru.BandwidthBps/1e9, nocache.BandwidthBps/1e9)
	}
	// A small vector fits the LRU cache and behaves like pinned.
	lruSmall, err := VectorSumBandwidth(VectorSumConfig{
		Deployment:  topology.PaperDeployment(topology.PhysicalCache, link),
		VectorBytes: 8 * memsim.GB,
		Cache:       LRUCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lruSmall.BandwidthBps < 50e9 {
		t.Fatalf("fitting LRU scan %.1f GB/s, want cached speed", lruSmall.BandwidthBps/1e9)
	}
}

// §4.4: near-memory computing makes every access local and beats pulling.
func TestNearMemorySum(t *testing.T) {
	cfg := VectorSumConfig{
		Deployment:  topology.PaperDeployment(topology.Logical, memsim.Link1()),
		VectorBytes: 96 * memsim.GB,
	}
	res, err := NearMemorySum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 servers x ~97 GB/s local: ~388 GB/s aggregate.
	if res.BandwidthBps < 300e9 || res.BandwidthBps > 420e9 {
		t.Fatalf("shipped bandwidth = %.0f GB/s, want ~388", res.BandwidthBps/1e9)
	}
	if res.SpeedupVsPull < 5 {
		t.Fatalf("speedup vs pull = %.1f, want > 5x", res.SpeedupVsPull)
	}
}

func TestNearMemoryRequiresLogical(t *testing.T) {
	_, err := NearMemorySum(VectorSumConfig{
		Deployment:  topology.PaperDeployment(topology.PhysicalCache, memsim.Link1()),
		VectorBytes: 8 * memsim.GB,
	})
	if err == nil {
		t.Fatal("near-memory on a physical pool accepted")
	}
}

func TestVectorSumValidation(t *testing.T) {
	if _, err := VectorSumBandwidth(VectorSumConfig{}); err == nil {
		t.Error("nil deployment accepted")
	}
	d := topology.PaperDeployment(topology.Logical, memsim.Link1())
	if _, err := VectorSumBandwidth(VectorSumConfig{Deployment: d}); err == nil {
		t.Error("zero vector accepted")
	}
	if _, err := VectorSumBandwidth(VectorSumConfig{Deployment: d, VectorBytes: 1, Accessor: 9}); err == nil {
		t.Error("bad accessor accepted")
	}
}

// Cache warm-up is visible: the first rep of Physical cache is slower
// than steady reps.
func TestCacheWarmupVisible(t *testing.T) {
	res := vectorBW(t, topology.PhysicalCache, memsim.Link1(), 8)
	if res.FirstRepSec <= res.SteadyRepSec {
		t.Fatalf("first rep %.3fs not slower than steady %.3fs", res.FirstRepSec, res.SteadyRepSec)
	}
}
