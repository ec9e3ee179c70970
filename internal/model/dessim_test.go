package model

import (
	"testing"

	"github.com/lmp-project/lmp/internal/memsim"
	"github.com/lmp-project/lmp/internal/topology"
)

// The discrete-event fabric simulation must agree with the fluid model's
// steady-state bandwidth within tolerance — two independent derivations
// of the paper's figures.
func TestDESCrossValidatesFluidModel(t *testing.T) {
	if testing.Short() {
		t.Skip("DES cross-validation is slow")
	}
	cases := []struct {
		name string
		kind topology.Kind
		gb   int64
	}{
		{"logical-8GB-all-local", topology.Logical, 8},
		{"logical-64GB-mixed", topology.Logical, 64},
		{"nocache-24GB-all-remote", topology.PhysicalNoCache, 24},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := VectorSumConfig{
				Deployment:  topology.PaperDeployment(c.kind, memsim.Link1()),
				VectorBytes: c.gb * memsim.GB,
				Reps:        1,
			}
			fluid, err := VectorSumBandwidth(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !fluid.Feasible {
				t.Fatal(fluid.Reason)
			}
			// Fluid steady-state bandwidth (warm==steady at Reps=1 for
			// these kinds).
			fluidBW := float64(cfg.VectorBytes) / fluid.SteadyRepSec

			des, err := vectorSumBandwidthDES(cfg, 1024, 256)
			if err != nil {
				t.Fatal(err)
			}
			ratio := des / fluidBW
			if ratio < 0.75 || ratio > 1.25 {
				t.Fatalf("DES %.1f GB/s vs fluid %.1f GB/s (ratio %.2f)",
					des/1e9, fluidBW/1e9, ratio)
			}
		})
	}
}

func TestDESValidation(t *testing.T) {
	cfg := VectorSumConfig{
		Deployment:  topology.PaperDeployment(topology.Logical, memsim.Link1()),
		VectorBytes: 8 * memsim.GB,
	}
	if _, err := vectorSumBandwidthDES(VectorSumConfig{}, 1024, 256); err == nil {
		t.Error("nil deployment accepted")
	}
	if _, err := vectorSumBandwidthDES(cfg, 0, 256); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := vectorSumBandwidthDES(cfg, 1024, 0); err == nil {
		t.Error("zero chunk accepted")
	}
	// Scaled vector below one chunk.
	small := cfg
	small.VectorBytes = 1024
	if _, err := vectorSumBandwidthDES(small, 1024, 256); err == nil {
		t.Error("sub-chunk vector accepted")
	}
	// Infeasible vector.
	big := VectorSumConfig{
		Deployment:  topology.PaperDeployment(topology.PhysicalNoCache, memsim.Link1()),
		VectorBytes: 96 * memsim.GB,
	}
	if _, err := vectorSumBandwidthDES(big, 1024, 256); err == nil {
		t.Error("infeasible vector accepted")
	}
}
