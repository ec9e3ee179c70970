// Command lmpbench regenerates the paper's evaluation: Table 1 (memory
// type characteristics), Table 2 (emulated link characterization),
// Figures 2-5 (vector-sum bandwidth across deployments), the §4.3 loaded-
// latency comparison, and the §4.4 near-memory experiment, from the
// calibrated profiles and internal/model; no go test benchmark repeats
// them. One runtime experiment rides along, `repair` (repairbench.go):
// RepairServer worker scaling and foreground read latency during live
// migration. Everything else about the runtime's speed is measured by
// bench/ (see bench/README.md).
//
// Usage:
//
//	lmpbench -experiment all
//	lmpbench -experiment fig4 -reps 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/coherence"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/memsim"
	"github.com/lmp-project/lmp/internal/model"
	"github.com/lmp-project/lmp/internal/topology"
)

var (
	experiment = flag.String("experiment", "all",
		"experiment to run: table1, table2, fig2, fig3, fig4, fig5, latency, nearmem, software, ablations, repair, all")
	reps  = flag.Int("reps", 10, "vector-sum repetitions")
	cores = flag.Int("sweep-cores", 14, "max cores for the table2 load sweep")
)

func main() {
	flag.Parse()
	run := map[string]func(){
		"table1":    table1,
		"table2":    table2,
		"fig2":      func() { figure(2, 8) },
		"fig3":      func() { figure(3, 24) },
		"fig4":      func() { figure(4, 64) },
		"fig5":      func() { figure(5, 96) },
		"latency":   latency,
		"nearmem":   nearmem,
		"software":  software,
		"ablations": ablations,
		"repair":    repair,
	}
	order := []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "latency", "nearmem", "software", "ablations", "repair"}
	names := strings.Split(*experiment, ",")
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "all" {
			for _, n := range order {
				run[n]()
			}
			continue
		}
		fn, ok := run[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "lmpbench: unknown experiment %q (want %s)\n",
				name, strings.Join(order, ", "))
			os.Exit(2)
		}
		fn()
	}
}

func table1() {
	fmt.Println("== Table 1: latency and bandwidth for different memory types ==")
	fmt.Printf("%-28s %12s %16s\n", "", "Latency (ns)", "Bandwidth (GB/s)")
	local := memsim.LocalDRAM()
	fmt.Printf("%-28s %12.0f %16.0f\n", local.Name, local.Latency.MinNS, local.Bandwidth/1e9)
	for _, p := range []memsim.Profile{memsim.PondCXL(), memsim.FPGACXL()} {
		fmt.Printf("%-28s %12.0f %16.0f\n", p.Name, p.Latency.MinNS, p.Bandwidth/1e9)
	}
	fmt.Println()
}

func table2() {
	fmt.Println("== Table 2: emulated CXL link characterization (measured by the event simulator) ==")
	fmt.Printf("%-12s %10s %10s %12s\n", "Remote link", "Min lat.", "Max lat.", "Bandwidth")
	for _, link := range []memsim.Profile{memsim.Link0(), memsim.Link1()} {
		pts := memsim.LoadSweep(link, memsim.DefaultCore(), *cores, 16<<20)
		min := pts[0].MeanLatencyNS
		max, bw := 0.0, 0.0
		for _, p := range pts {
			if p.MeanLatencyNS > max {
				max = p.MeanLatencyNS
			}
			if p.BandwidthBps > bw {
				bw = p.BandwidthBps
			}
		}
		fmt.Printf("%-12s %8.0fns %8.0fns %9.1fGB/s\n", link.Name, min, max, bw/1e9)
	}
	fmt.Println()
}

func figure(n int, gb int64) {
	fmt.Printf("== Figure %d: %dGB vector aggregation bandwidth (avg of %d reps) ==\n", n, gb, *reps)
	fmt.Printf("%-20s %14s %14s\n", "Deployment", "Link0 (GB/s)", "Link1 (GB/s)")
	kinds := []topology.Kind{topology.Logical, topology.PhysicalCache, topology.PhysicalNoCache}
	for _, kind := range kinds {
		row := fmt.Sprintf("%-20s", kind)
		for _, link := range []memsim.Profile{memsim.Link0(), memsim.Link1()} {
			res, err := model.VectorSumBandwidth(model.VectorSumConfig{
				Deployment:  topology.PaperDeployment(kind, link),
				VectorBytes: gb * memsim.GB,
				Reps:        *reps,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
				os.Exit(1)
			}
			if !res.Feasible {
				row += fmt.Sprintf(" %14s", "infeasible")
			} else {
				row += fmt.Sprintf(" %14.1f", res.BandwidthBps/1e9)
			}
		}
		fmt.Println(row)
	}
	// Headline ratios on Link1.
	l, _ := model.VectorSumBandwidth(model.VectorSumConfig{
		Deployment: topology.PaperDeployment(topology.Logical, memsim.Link1()), VectorBytes: gb * memsim.GB, Reps: *reps})
	c, _ := model.VectorSumBandwidth(model.VectorSumConfig{
		Deployment: topology.PaperDeployment(topology.PhysicalCache, memsim.Link1()), VectorBytes: gb * memsim.GB, Reps: *reps})
	nc, _ := model.VectorSumBandwidth(model.VectorSumConfig{
		Deployment: topology.PaperDeployment(topology.PhysicalNoCache, memsim.Link1()), VectorBytes: gb * memsim.GB, Reps: *reps})
	if l.Feasible && nc.Feasible {
		fmt.Printf("Link1 ratios: logical/no-cache = %.2fx", l.BandwidthBps/nc.BandwidthBps)
		if c.Feasible {
			fmt.Printf(", logical/cache = %.2fx", l.BandwidthBps/c.BandwidthBps)
		}
		fmt.Println()
	}
	if !l.Feasible {
		fmt.Printf("logical: %s\n", l.Reason)
	}
	if !c.Feasible {
		fmt.Printf("physical: %s\n", c.Reason)
	}
	fmt.Println()
}

func latency() {
	fmt.Println("== §4.3: maximum loaded latency, remote vs local ==")
	local := memsim.LocalDRAM()
	fmt.Printf("%-12s %12s %18s\n", "Link", "Max latency", "Ratio vs local max")
	fmt.Printf("%-12s %10.0fns %18s\n", "Local", local.Latency.MaxNS, "1.0x")
	for _, link := range []memsim.Profile{memsim.Link0(), memsim.Link1()} {
		fmt.Printf("%-12s %10.0fns %17.1fx\n", link.Name, link.Latency.MaxNS,
			link.Latency.MaxNS/local.Latency.MaxNS)
	}
	fmt.Println()
}

func nearmem() {
	fmt.Println("== §4.4: near-memory computing (96GB distributed sum, Link1) ==")
	cfg := model.VectorSumConfig{
		Deployment:  topology.PaperDeployment(topology.Logical, memsim.Link1()),
		VectorBytes: 96 * memsim.GB,
		Reps:        *reps,
	}
	pull, err := model.VectorSumBandwidth(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	shipped, err := model.NearMemorySum(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-28s %10.1f GB/s\n", "Pull to one server", pull.BandwidthBps/1e9)
	fmt.Printf("%-28s %10.1f GB/s (%.1fx)\n", "Ship computation (4 servers)",
		shipped.BandwidthBps/1e9, shipped.SpeedupVsPull)
	fmt.Println()
}

func ablations() {
	fmt.Println("== Ablations (design choices from §5) ==")

	// Address translation footprint: flat directory vs two-step.
	flat, two := addr.EntriesPerBuffer(memsim.GB, 12)
	fmt.Printf("translation entries per GiB: flat directory %d, two-step %d (%.0fx smaller)\n",
		flat, two, float64(flat)/float64(two))

	// Coherence granularity: false-sharing invalidations.
	for _, gran := range []int64{64, 8} {
		d, err := coherence.NewDirectory(gran, 1024)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
			os.Exit(1)
		}
		for i := 0; i < 1000; i++ {
			if _, err := d.AcquireWrite(0, 0); err != nil {
				fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
				os.Exit(1)
			}
			if _, err := d.AcquireWrite(1, 8); err != nil {
				fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
				os.Exit(1)
			}
		}
		st := d.Stats()
		fmt.Printf("coherence @%2dB tracking: %.2f invalidations/op (adjacent-field writers)\n",
			gran, float64(st.Invalidations)/2000)
	}

	// Failure protection trade-off.
	for _, pol := range []failure.Policy{
		{Scheme: failure.Replicate, Copies: 2},
		{Scheme: failure.ErasureCode, K: 4, M: 2},
	} {
		fmt.Printf("protection %-14s: %.2fx space, tolerates %d crash(es)\n",
			pol.Scheme, pol.Overhead(), pol.Tolerates())
	}

	// Incast: pool device port provisioning.
	link := memsim.Link1()
	for _, ports := range []int{1, 4} {
		device := &memsim.FluidResource{Name: "pool/out", Rate: link.Bandwidth * float64(ports)}
		var flows []*memsim.Flow
		for s := 0; s < 4; s++ {
			in := &memsim.FluidResource{Name: fmt.Sprintf("srv%d/in", s), Rate: link.Bandwidth}
			flows = append(flows, &memsim.Flow{
				Name:     fmt.Sprintf("srv%d", s),
				Segments: []memsim.Segment{{Bytes: 8 * memsim.GB, Via: []*memsim.FluidResource{in, device}}},
			})
		}
		res, err := memsim.SimulateFluid(flows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("incast with %d pool port(s): %.1f GB/s aggregate to 4 servers\n",
			ports, res.AggregateBandwidth()/1e9)
	}
	fmt.Println()
}

func software() {
	fmt.Println("== §2.1: hardware (CXL) vs software (RDMA paging) disaggregation ==")
	cmp, err := memsim.CompareDisaggregation(memsim.Link1(), memsim.DefaultCore(), memsim.RDMASwap())
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-34s %12s %12s\n", "", "Hardware", "Software")
	fmt.Printf("%-34s %9.1f GB/s %8.2f GB/s\n", "Sequential far-memory bandwidth",
		cmp.HardwareSeqBps/1e9, cmp.SoftwareSeqBps/1e9)
	fmt.Printf("%-34s %9.3f GB/s %8.4f GB/s\n", "Random 64B useful bandwidth",
		cmp.HardwareRandBps/1e9, cmp.SoftwareRandBps/1e9)
	sw := memsim.RDMASwap()
	fmt.Printf("%-34s %9.0f ns   %8.0f ns\n", "Remote access latency",
		memsim.Link1().Latency.MinNS, sw.MissLatencyNS())
	fmt.Println()
}
