// Command bench is the repository's benchmark: five workloads over the
// TCP path (daemon.PoolView → rpc → daemon.Server → memnode) and the
// in-process path (lmp.Pool), end-to-end metrics per workload as the
// median of five rounds, and per-layer metrics from a separate traced
// run. README.md documents the workloads, the metrics and how they
// interact; BENCHMARK.json at the repository root is the contract the
// driver runs it under.
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-smoke]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

const (
	warmSeconds = 2.0
	smokeNS     = 300e6
	// setupReps set-ups (setupReps-1 of them in children that exit once
	// ready) give setup_s as a median; one alone is 0.02-0.2 s of page
	// faults and wanders by tens of percent.
	setupReps = 9
)

var (
	flagWorkload = flag.String("workload", "", "workload to run (default: all five)")
	flagSeed     = flag.Int64("seed", 1, "seed of the generated op streams")
	flagSeconds  = flag.Float64("seconds", 20, "measured seconds per workload, cut into 5 rounds")
	flagTrace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	flagSmoke    = flag.Bool("smoke", false, "one 300 ms round per workload, no warm-up: checks the harness, measures nothing")
	flagAA       = flag.String("aa-report", "", "compare the result sets aa.sh left in this directory and write the spread table")
	flagChild    = flag.Bool("child", false, "internal: run -workload in this process")
	flagSetup    = flag.Bool("setup-only", false, "internal: build the deployment, print the set-up time, exit")
	flagSetups   = flag.String("setups", "", "internal: set-up times other children measured")
)

// config is what one child runs.
type config struct {
	sp      *spec
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	setups  []float64 // set-up times earlier children measured
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	if *flagAA != "" {
		return aaReport(*flagAA)
	}
	if runtime.NumCPU() < callers {
		return fmt.Errorf("%d CPU: the run shape is %d callers on GOMAXPROCS=%d, a 1-CPU box measures something else", runtime.NumCPU(), callers, callers)
	}
	runtime.GOMAXPROCS(callers)
	if *flagChild {
		sp := specByName(*flagWorkload)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", *flagWorkload)
		}
		if *flagSetup {
			t, s, err := timedBuild(sp)
			if err != nil {
				return err
			}
			t.close()
			fmt.Println(s)
			return nil
		}
		cfg := config{sp: sp, seed: *flagSeed, seconds: *flagSeconds, traced: *flagTrace != 0, smoke: *flagSmoke}
		for _, f := range strings.Split(*flagSetups, ",") {
			if s, err := strconv.ParseFloat(f, 64); err == nil {
				cfg.setups = append(cfg.setups, s)
			}
		}
		return runChild(cfg, os.Stdout)
	}

	// Parent: one fresh process per workload, so peak_rss_mb and the CPU
	// time are that workload's alone.
	todo := specs
	if *flagWorkload != "" {
		sp := specByName(*flagWorkload)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", *flagWorkload)
		}
		todo = []spec{*sp}
	}
	printEnv(os.Stdout)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, sp := range todo {
		base := []string{"-child", "-workload", sp.name}
		var setups []string
		if *flagTrace == 0 && !*flagSmoke {
			for i := 1; i < setupReps; i++ {
				out, err := exec.Command(exe, append(base, "-setup-only")...).Output()
				if err != nil {
					return fmt.Errorf("%s: set-up child: %w", sp.name, err)
				}
				setups = append(setups, strings.TrimSpace(string(out)))
			}
		}
		cmd := exec.Command(exe, append(base,
			"-seed", fmt.Sprint(*flagSeed), "-seconds", fmt.Sprint(*flagSeconds),
			"-trace", fmt.Sprint(*flagTrace), fmt.Sprintf("-smoke=%t", *flagSmoke),
			"-setups", strings.Join(setups, ","))...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			failed = append(failed, sp.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// timedBuild builds the deployment and reports the seconds from process
// start to ready (setup_s).
func timedBuild(sp *spec) (target, float64, error) {
	t, err := sp.build(false, false)
	return t, float64(now()) / 1e9, err
}

func newCallers(cfg config) []*caller {
	cs := make([]*caller, callers)
	for i := range cs {
		cs[i] = newCaller(cfg.sp, i, cfg.seed)
	}
	return cs
}

// plan cuts a part of the measured seconds into n rounds and returns how
// long each is; a smoke run makes every phase one 300 ms round.
func (cfg config) plan(part float64, n int) (int, int64) {
	if cfg.smoke {
		return 1, smokeNS
	}
	return n, int64(cfg.seconds * part / float64(n) * 1e9)
}

func (cfg config) warm(t target, cs []*caller) {
	if !cfg.smoke {
		runRound(t, cs, int64(warmSeconds*1e9))
	}
	runtime.GC()
}

// runChild runs one workload in this process and prints its table and,
// last, the result line. A failed op, calls still pending on a
// connection or a missing metric make it return an error after printing.
func runChild(cfg config, w io.Writer) error {
	if cfg.traced {
		return runTraced(cfg, w)
	}
	sp := cfg.sp
	t, seconds, err := timedBuild(sp)
	if err != nil {
		return err
	}
	defer t.close()
	ref, err := newMachineRef()
	if err != nil {
		return err
	}
	defer ref.close()
	setups := append(cfg.setups, seconds)
	cs := newCallers(cfg)
	cfg.warm(t, cs)
	n, ns := cfg.plan(1, rounds)
	rs, refNS := measure(t, cs, n, ns, ref)
	med, spr := summarize(rs)
	med["setup_s"], spr["setup_s"] = median(setups), spread(setups)
	med["peak_rss_mb"] = peakRSSMB()
	all := merged(rs)

	fmt.Fprintf(w, "\n== %s  seed %d  %d rounds x %.1f s, %d callers, closed loop ==\n",
		sp.name, cfg.seed, n, float64(ns)/1e9, callers)
	fmt.Fprintf(w, "%-14s %16s %-5s %8s  %s\n", "metric", "median of rounds", "unit", "spread", "samples")
	res := result{Metrics: map[string]metric{}}
	for _, name := range printedNames {
		samples := ""
		switch {
		case strings.HasPrefix(name, "read_"):
			samples = fmt.Sprint(all.lat[kindRead].n)
		case strings.HasPrefix(name, "write_"):
			samples = fmt.Sprint(all.lat[kindWrite].n)
		case name == "setup_s":
			samples = fmt.Sprintf("%d set-ups", len(setups))
		case name == "ops_per_s" || name == "cpu_us_per_op":
			samples = fmt.Sprint(all.total())
		}
		if _, gated := e2eUnits[name]; gated {
			res.Metrics[name] = metric{med[name], e2eUnits[name]}
		} else {
			samples += "  (per-layer: e2e." + name + ")"
		}
		spreadCell := ""
		if x, ok := spr[name]; ok {
			spreadCell = fmt.Sprintf("%.1f%%", 100*x)
		}
		fmt.Fprintf(w, "%-14s %16.4f %-5s %8s  %s\n", name, med[name], printedUnits[name], spreadCell, samples)
	}
	fmt.Fprintf(w, "machine reference %.2f us per loopback round trip (a diagnostic, see README.md)\n", refNS/1e3)
	var pending int
	if wt, ok := t.(*wireTarget); ok {
		pending = wt.clientStats().Pending
	}
	return finish(w, &res, cs, pending, true)
}

// finish fills in the failure accounting, prints the result line and
// turns anything wrong into the child's error. positive says a metric
// reading 0 is missing too (every end-to-end metric).
func finish(w io.Writer, res *result, cs []*caller, pending int, positive bool) error {
	var firstErr error
	for _, c := range cs {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if firstErr == nil {
			firstErr = c.firstErr
		}
	}
	var bad []string
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || positive && m.Value <= 0 {
			bad = append(bad, name)
		}
	}
	res.Correct = res.Failed == 0 && pending == 0 && len(bad) == 0
	fmt.Fprintf(w, "ops attempted %d, failed %d, rpc calls pending at end %d\n", res.Attempted, res.Failed, pending)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	switch {
	case res.Failed > 0:
		return fmt.Errorf("%d of %d ops failed, first: %v", res.Failed, res.Attempted, firstErr)
	case pending != 0:
		return fmt.Errorf("%d rpc calls still pending after the last op returned", pending)
	case len(bad) > 0:
		return fmt.Errorf("metrics without a value: %s", strings.Join(bad, ", "))
	}
	return nil
}
