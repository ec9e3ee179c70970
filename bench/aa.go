package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// contract is what the harness reads of BENCHMARK.json.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	return &c, json.Unmarshal(raw, &c)
}

const (
	aaBegin = "<!-- aa:begin -->"
	aaEnd   = "<!-- aa:end -->"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the driver's spread measure).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := i * (len(s) + 1)
		j, delta := pos/4, pos%4
		j = max(1, min(len(s)-1, j))
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// readSets parses the outputs aa.sh saved: one file per full run, in
// which every workload's "== name" header is followed by its table (one
// row per printed metric: name, value, ...) and its result line.
func readSets(dir string) (map[string]map[string][]float64, int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "set-*.txt"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(files)
	vals := map[string]map[string][]float64{} // workload → metric → one value per set
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		workload := ""
		for _, line := range strings.Split(string(text), "\n") {
			f := strings.Fields(line)
			switch {
			case strings.HasPrefix(line, "== "):
				workload = f[1]
				if vals[workload] == nil {
					vals[workload] = map[string][]float64{}
				}
			case strings.HasPrefix(line, "{"):
				var res result
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					return nil, 0, fmt.Errorf("%s: %w", path, err)
				}
				if !res.Correct {
					return nil, 0, fmt.Errorf("%s: %s did not run correctly", path, workload)
				}
			case len(f) >= 2 && printedUnits[f[0]] != "" && workload != "":
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return nil, 0, fmt.Errorf("%s: %q: %w", path, line, err)
				}
				vals[workload][f[0]] = append(vals[workload][f[0]], v)
			}
		}
	}
	return vals, len(files), nil
}

// aaReport is the A/A proof's second half. Given several full runs of
// one commit it applies, per workload and end-to-end metric, the two
// checks the driver makes before it accepts the benchmark, each at half
// of what the driver allows: the spread of the runs (quartile distance
// over median, within half the bound; like the driver not for setup_s)
// and the median of the later half of the runs against the earlier half
// (worse by no more than half the bound). It reports the same, ungated, for the timed metrics that are
// per-layer metrics, and for all of them the largest difference between
// any two runs, the issue's stricter measure. It writes the table into
// README.md and fails if a check does.
func aaReport(dir string) error {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range c.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	vals, sets, err := readSets(dir)
	if err != nil {
		return err
	}
	if sets < 4 {
		return fmt.Errorf("%s holds %d result sets, need at least 4", dir, sets)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d full untraced runs of one commit, seeds 1..%d, %s, values as measured.\n", sets, sets, cpuModel())
	fmt.Fprintf(&b, "`iqr`: distance between the quartiles over the median (the driver allows the bound, and not\n")
	fmt.Fprintf(&b, "for `setup_s`). `shift`: how much worse the median of the later half of the runs is than\n")
	fmt.Fprintf(&b, "that of the earlier half (the driver allows the bound). `aa.sh` fails if either exceeds\n")
	fmt.Fprintf(&b, "half the bound. `pair`: the largest difference between any two runs\n")
	fmt.Fprintf(&b, "over the smaller (the issue's measure, reported). A row without a bound is a per-layer\n")
	fmt.Fprintf(&b, "metric (`e2e.<name>`): printed by every run, gated by nothing.\n\n")
	fmt.Fprintf(&b, "| workload | metric | median | unit | iqr | shift | pair | bound |\n|---|---|---:|---|---:|---:|---:|---:|\n")
	var over []string
	for _, w := range c.Workloads {
		for _, name := range printedNames {
			v := vals[w.Name][name]
			if len(v) != sets {
				return fmt.Errorf("%s %s: %d values in %d sets", w.Name, name, len(v), sets)
			}
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			q1, q3 := quartiles(v)
			iqr := ratio(q3-q1, median(v))
			first, second := median(v[:sets/2]), median(v[sets/2:])
			shift := ratio(second-first, first)
			if name == "ops_per_s" { // the one metric where higher is better
				shift = -shift
			}
			bound, gated := bounds[name]
			cell := "—"
			if gated {
				cell = fmt.Sprintf("%.0f %%", 100*bound)
			}
			fmt.Fprintf(&b, "| %s | %s | %.4g | %s | %.1f %% | %+.1f %% | %.1f %% | %s |\n",
				w.Name, name, median(v), printedUnits[name], 100*iqr, 100*shift, 100*ratio(hi-lo, lo), cell)
			if !gated {
				continue
			}
			if iqr > bound/2 && name != "setup_s" {
				over = append(over, fmt.Sprintf("%s %s: spread %.1f %%, half the bound is %.1f %%", w.Name, name, 100*iqr, 100*bound/2))
			}
			if shift > bound/2 {
				over = append(over, fmt.Sprintf("%s %s: later runs worse by %.1f %%, half the bound is %.1f %%", w.Name, name, 100*shift, 100*bound/2))
			}
		}
	}
	fmt.Print(b.String())

	readme := filepath.Join("bench", "README.md")
	text, err := os.ReadFile(readme)
	if err != nil {
		return err
	}
	head, rest, ok := strings.Cut(string(text), aaBegin)
	_, tail, ok2 := strings.Cut(rest, aaEnd)
	if !ok || !ok2 {
		return fmt.Errorf("%s: markers %s ... %s not found", readme, aaBegin, aaEnd)
	}
	if err := os.WriteFile(readme, []byte(head+aaBegin+"\n"+b.String()+aaEnd+tail), 0o644); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A runs of one commit disagree:\n  %s", strings.Join(over, "\n  "))
	}
	return nil
}
