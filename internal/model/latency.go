package model

import (
	"fmt"

	"github.com/lmp-project/lmp/internal/memsim"
	"github.com/lmp-project/lmp/internal/sim"
	"github.com/lmp-project/lmp/internal/telemetry"
	"github.com/lmp-project/lmp/internal/topology"
)

// latencyProbeResult reports the §4.3 latency analysis measured on the
// discrete-event simulator rather than read off the calibration curves:
// loaded local and remote access latencies under a saturating streaming
// workload, and their ratio.
type latencyProbeResult struct {
	LocalMeanNS  float64
	LocalMaxNS   float64
	RemoteMeanNS float64
	RemoteMaxNS  float64
	// MaxRatio is max loaded remote latency over max loaded local latency
	// (the paper reports 2.8x for Link0 and 3.6x for Link1).
	MaxRatio float64
}

// latencyProbe saturates a local memory and a remote link with the
// deployment's full core count and measures per-access latency
// distributions in the event simulation.
func latencyProbe(d *topology.Deployment, bytesPerSide int64) (latencyProbeResult, error) {
	if d == nil {
		return latencyProbeResult{}, fmt.Errorf("model: no deployment")
	}
	if err := d.Validate(); err != nil {
		return latencyProbeResult{}, err
	}
	if bytesPerSide <= 0 {
		return latencyProbeResult{}, fmt.Errorf("model: bytes %d must be positive", bytesPerSide)
	}
	cores := d.Servers[0].Cores

	measure := func(p memsim.Profile) (mean, max float64) {
		eng := sim.NewEngine()
		mem := memsim.NewMemory(eng, p)
		mem.LatencyHist = &telemetry.Histogram{}
		memsim.RunStream(eng, mem, cores, d.Core, bytesPerSide)
		return mem.LatencyHist.Mean(), mem.LatencyHist.Max()
	}
	res := latencyProbeResult{}
	res.LocalMeanNS, res.LocalMaxNS = measure(d.LocalMem)
	res.RemoteMeanNS, res.RemoteMaxNS = measure(d.Link)
	if res.LocalMaxNS > 0 {
		res.MaxRatio = res.RemoteMaxNS / res.LocalMaxNS
	}
	return res, nil
}
