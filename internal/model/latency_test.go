package model

import (
	"testing"

	"github.com/lmp-project/lmp/internal/memsim"
	"github.com/lmp-project/lmp/internal/topology"
)

func TestLatencyProbeReproducesLoadedRatios(t *testing.T) {
	cases := []struct {
		link  memsim.Profile
		ratio float64
	}{
		{memsim.Link0(), 2.8},
		{memsim.Link1(), 3.6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.link.Name, func(t *testing.T) {
			d := topology.PaperDeployment(topology.Logical, c.link)
			res, err := latencyProbe(d, 16<<20)
			if err != nil {
				t.Fatal(err)
			}
			if res.LocalMeanNS < 82 || res.LocalMaxNS > 160 {
				t.Fatalf("local latency %v/%v ns out of range", res.LocalMeanNS, res.LocalMaxNS)
			}
			if res.RemoteMeanNS <= res.LocalMeanNS {
				t.Fatal("remote not slower than local")
			}
			// The measured max-loaded ratio should land near the paper's.
			if res.MaxRatio < c.ratio*0.8 || res.MaxRatio > c.ratio*1.2 {
				t.Fatalf("max loaded ratio = %.2f, want ~%.1f", res.MaxRatio, c.ratio)
			}
		})
	}
}

func TestLatencyProbeValidation(t *testing.T) {
	if _, err := latencyProbe(nil, 1); err == nil {
		t.Error("nil deployment accepted")
	}
	d := topology.PaperDeployment(topology.Logical, memsim.Link1())
	if _, err := latencyProbe(d, 0); err == nil {
		t.Error("zero bytes accepted")
	}
}
