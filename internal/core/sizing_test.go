package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/lmp-project/lmp/internal/memsim"
)

const sizeStep = 1 << 20 // 1MiB steps keep tests readable

func TestOptimizeServesLocalDemand(t *testing.T) {
	// One server with shared demand, others idle: the optimizer should
	// grow exactly that server's region to its demand.
	servers := []ServerLoad{
		{Capacity: 64 * sizeStep, SharedDemand: 16 * sizeStep, SharedWeight: 1},
		{Capacity: 64 * sizeStep},
		{Capacity: 64 * sizeStep},
	}
	res, err := optimizeSizes(servers, 0, sizeStep)
	if err != nil {
		t.Fatal(err)
	}
	if res.SharedBytes[0] != 16*sizeStep {
		t.Fatalf("server 0 shared = %d MB, want 16", res.SharedBytes[0]/sizeStep)
	}
	if res.SharedBytes[1] != 0 || res.SharedBytes[2] != 0 {
		t.Fatalf("idle servers shared = %v", res.SharedBytes)
	}
	if res.LocalSharedBytes[0] != 16*sizeStep {
		t.Fatalf("local shared = %d", res.LocalSharedBytes[0])
	}
}

func TestOptimizeProtectsPrivateWorkingSets(t *testing.T) {
	// Required pool forces sharing; the server whose private working set
	// is more valuable should give up less.
	servers := []ServerLoad{
		{Capacity: 32 * sizeStep, PrivateDemand: 32 * sizeStep, PrivateWeight: 10},
		{Capacity: 32 * sizeStep, PrivateDemand: 32 * sizeStep, PrivateWeight: 1},
	}
	res, err := optimizeSizes(servers, 32*sizeStep, sizeStep)
	if err != nil {
		t.Fatal(err)
	}
	if res.SharedBytes[0]+res.SharedBytes[1] != 32*sizeStep {
		t.Fatalf("pool = %d, want 32MB", res.SharedBytes[0]+res.SharedBytes[1])
	}
	if res.SharedBytes[1] != 32*sizeStep {
		t.Fatalf("low-value server shares %d MB, want all 32 (high-value server spared %d)",
			res.SharedBytes[1]/sizeStep, res.SharedBytes[0]/sizeStep)
	}
}

func TestOptimizeMeetsRequiredPool(t *testing.T) {
	servers := []ServerLoad{
		{Capacity: 24 * sizeStep, PrivateDemand: 24 * sizeStep, PrivateWeight: 1},
		{Capacity: 24 * sizeStep, PrivateDemand: 24 * sizeStep, PrivateWeight: 1},
		{Capacity: 24 * sizeStep, PrivateDemand: 24 * sizeStep, PrivateWeight: 1},
		{Capacity: 24 * sizeStep, PrivateDemand: 24 * sizeStep, PrivateWeight: 1},
	}
	res, err := optimizeSizes(servers, 96*sizeStep, sizeStep)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range res.SharedBytes {
		total += s
	}
	if total != 96*sizeStep {
		t.Fatalf("pool = %d MB, want 96 (the Figure 5 full-contribution case)", total/sizeStep)
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	servers := []ServerLoad{{Capacity: 8 * sizeStep}}
	if _, err := optimizeSizes(servers, 16*sizeStep, sizeStep); !errors.Is(err, errSizingInfeasible) {
		t.Fatalf("expected errSizingInfeasible, got %v", err)
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, err := optimizeSizes(nil, 0, sizeStep); err == nil {
		t.Error("no servers accepted")
	}
	if _, err := optimizeSizes([]ServerLoad{{Capacity: sizeStep}}, 0, 0); err == nil {
		t.Error("zero sizeStep accepted")
	}
	if _, err := optimizeSizes([]ServerLoad{{Capacity: sizeStep}}, -1, sizeStep); err == nil {
		t.Error("negative pool accepted")
	}
	if _, err := optimizeSizes([]ServerLoad{{Capacity: 0}}, 0, sizeStep); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestOptimizeBeatsStaticSplit(t *testing.T) {
	// Asymmetric demands: a static 50% split wastes capacity on the idle
	// server and starves the busy one; the optimizer should score higher.
	servers := []ServerLoad{
		{Capacity: 32 * sizeStep, SharedDemand: 30 * sizeStep, SharedWeight: 2, PrivateDemand: 2 * sizeStep, PrivateWeight: 1},
		{Capacity: 32 * sizeStep, SharedDemand: 0, PrivateDemand: 30 * sizeStep, PrivateWeight: 3},
	}
	res, err := optimizeSizes(servers, 16*sizeStep, sizeStep)
	if err != nil {
		t.Fatal(err)
	}
	static, err := staticSplit(servers, 0.5, sizeStep)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := evaluateSplit(servers, static)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := evaluateSplit(servers, res.SharedBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ov <= sv {
		t.Fatalf("optimizer value %.0f not above static value %.0f", ov, sv)
	}
}

func TestStaticSplitRoundsToStep(t *testing.T) {
	servers := []ServerLoad{{Capacity: 10*sizeStep + 12345}}
	out, err := staticSplit(servers, 0.5, sizeStep)
	if err != nil {
		t.Fatal(err)
	}
	if out[0]%sizeStep != 0 {
		t.Fatalf("split %d not sizeStep-aligned", out[0])
	}
	if _, err := staticSplit(servers, 1.5, sizeStep); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := staticSplit(servers, 0.5, 0); err == nil {
		t.Error("zero sizeStep accepted")
	}
}

func TestEvaluateValidation(t *testing.T) {
	servers := []ServerLoad{{Capacity: 10 * sizeStep}}
	if _, err := evaluateSplit(servers, []int64{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := evaluateSplit(servers, []int64{20 * sizeStep}); err == nil {
		t.Error("oversized share accepted")
	}
	if _, err := evaluateSplit(servers, []int64{-1}); err == nil {
		t.Error("negative share accepted")
	}
}

func TestOptimizerIsGreedyOptimalOnConcaveCase(t *testing.T) {
	// With concave per-server values, greedy water-filling is optimal.
	// Cross-check against brute force on a small instance.
	servers := []ServerLoad{
		{Capacity: 4 * sizeStep, SharedDemand: 2 * sizeStep, SharedWeight: 3, PrivateDemand: 3 * sizeStep, PrivateWeight: 2},
		{Capacity: 4 * sizeStep, SharedDemand: 3 * sizeStep, SharedWeight: 1, PrivateDemand: 1 * sizeStep, PrivateWeight: 5},
	}
	const required = 4 * sizeStep
	res, err := optimizeSizes(servers, required, sizeStep)
	if err != nil {
		t.Fatal(err)
	}
	bestV := -1e18
	for a := int64(0); a <= 4; a++ {
		for b := int64(0); b <= 4; b++ {
			if (a+b)*sizeStep < required {
				continue
			}
			v, err := evaluateSplit(servers, []int64{a * sizeStep, b * sizeStep})
			if err != nil {
				t.Fatal(err)
			}
			if v > bestV {
				bestV = v
			}
		}
	}
	got, err := evaluateSplit(servers, res.SharedBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got < bestV-1e-6 {
		t.Fatalf("greedy value %.0f below brute-force optimum %.0f (split %v)", got, bestV, res.SharedBytes)
	}
}

// staticSplit is the baseline policy of the sizing ablation (a test and
// benchmark helper: the runtime only ever runs the optimizer): every server
// shares the same fixed fraction of its capacity, rounded down to stepBytes.
func staticSplit(servers []ServerLoad, fraction float64, stepBytes int64) ([]int64, error) {
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("sizing: fraction %v outside [0,1]", fraction)
	}
	if stepBytes <= 0 {
		return nil, fmt.Errorf("sizing: stepBytes %d must be positive", stepBytes)
	}
	out := make([]int64, len(servers))
	for i, s := range servers {
		sz := int64(float64(s.Capacity) * fraction)
		out[i] = sz - sz%stepBytes
	}
	return out, nil
}

// evaluateSplit scores a given split under the same objective the optimizer
// maximizes (for comparing policies).
func evaluateSplit(servers []ServerLoad, shared []int64) (float64, error) {
	if len(shared) != len(servers) {
		return 0, fmt.Errorf("sizing: %d sizes for %d servers", len(shared), len(servers))
	}
	var v float64
	for i, s := range servers {
		sz := shared[i]
		if sz < 0 || sz > s.Capacity {
			return 0, fmt.Errorf("sizing: server %d size %d outside [0,%d]", i, sz, s.Capacity)
		}
		v += s.SharedWeight * float64(min(sz, s.SharedDemand))
		keep := min(s.Capacity-sz, s.PrivateDemand)
		v -= s.PrivateWeight * float64(s.PrivateDemand-keep)
	}
	return v, nil
}

// BenchmarkAblationSizing compares the periodic optimizer against a
// static 50% split on the weighted-local-fit objective.
func BenchmarkAblationSizing(b *testing.B) {
	servers := []ServerLoad{
		{Capacity: 24 * memsim.GB, SharedDemand: 20 * memsim.GB, SharedWeight: 2, PrivateDemand: 4 * memsim.GB, PrivateWeight: 1},
		{Capacity: 24 * memsim.GB, SharedDemand: 0, PrivateDemand: 22 * memsim.GB, PrivateWeight: 3},
		{Capacity: 24 * memsim.GB, SharedDemand: 6 * memsim.GB, SharedWeight: 1, PrivateDemand: 12 * memsim.GB, PrivateWeight: 1},
		{Capacity: 24 * memsim.GB, SharedDemand: 2 * memsim.GB, SharedWeight: 4, PrivateDemand: 20 * memsim.GB, PrivateWeight: 2},
	}
	const required = 24 * memsim.GB
	b.Run("optimizer", func(b *testing.B) {
		var value float64
		for i := 0; i < b.N; i++ {
			res, err := optimizeSizes(servers, required, 256<<20)
			if err != nil {
				b.Fatal(err)
			}
			value = res.Value
		}
		b.ReportMetric(value/1e9, "objective-G")
	})
	b.Run("static-50", func(b *testing.B) {
		var value float64
		for i := 0; i < b.N; i++ {
			split, err := staticSplit(servers, 0.5, 256<<20)
			if err != nil {
				b.Fatal(err)
			}
			value, err = evaluateSplit(servers, split)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(value/1e9, "objective-G")
	})
}
