// The -json / -compare modes: a machine-readable perf trajectory for the
// hot path. `lmpbench -json BENCH_4.json` runs the Zipf-skewed
// read-mostly workload (the same shape as BenchmarkPoolZipfReadMostly)
// with the page cache off and on and writes one record per variant;
// `lmpbench -compare BENCH_4.json` re-runs the workload against a
// checked-in baseline and exits nonzero when ns/op regresses by more
// than compareTolerance. The records carry the workload parameters so a
// baseline is only compared against its own configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	lmp "github.com/lmp-project/lmp"
)

// zipfConfig pins the workload shape inside the JSON record, so a
// baseline from a different workload is rejected instead of silently
// compared.
type zipfConfig struct {
	Hosts        int     `json:"hosts"`
	Workers      int     `json:"workers"`
	SharedSlices int     `json:"shared_slices"`
	ZipfS        float64 `json:"zipf_s"`
	WriteEvery   int     `json:"write_every"`
	AccessBytes  int     `json:"access_bytes"`
}

var defaultZipfConfig = zipfConfig{
	Hosts:        8,
	Workers:      8,
	SharedSlices: 16,
	ZipfS:        1.4,
	WriteEvery:   100,
	AccessBytes:  64,
}

// benchRecord is one benchmark variant's measured numbers. The tail
// fields come from the pool's own sampled read-latency histogram
// (Pool.Stats().ReadLatency), so the baseline records the distribution
// the default observability config would report in production, not just
// the mean.
type benchRecord struct {
	Name        string     `json:"name"`
	NsPerOp     float64    `json:"ns_per_op"`
	BytesPerOp  int64      `json:"bytes_per_op"`
	AllocsPerOp int64      `json:"allocs_per_op"`
	HitRate     float64    `json:"hit_rate"`
	ReadP50NS   float64    `json:"read_p50_ns,omitempty"`
	ReadP99NS   float64    `json:"read_p99_ns,omitempty"`
	ReadP999NS  float64    `json:"read_p999_ns,omitempty"`
	Config      zipfConfig `json:"config"`
}

type benchFile struct {
	Schema     int           `json:"schema"`
	Benchmarks []benchRecord `json:"benchmarks"`
	// RPC carries the transport throughput records (see rpcbench.go).
	// Omitted by baselines older than the pipelined transport; -compare
	// tolerates their absence.
	RPC []rpcRecord `json:"rpc,omitempty"`
	// Repair carries the recovery/migration engine records (see
	// repairbench.go). Omitted by baselines older than the parallel
	// engine; -compare tolerates their absence.
	Repair []repairRecord `json:"repair,omitempty"`
	// Tail carries the hedged-read latency records (see tailbench.go).
	// Omitted by baselines older than the tail-tolerant request path;
	// -compare tolerates their absence.
	Tail []tailRecord `json:"tail,omitempty"`
}

// compareTolerance is the soft regression budget: ns/op may drift this
// fraction above the baseline before -compare fails.
const compareTolerance = 0.10

// initBenchtime widens testing.Benchmark's default 1s measurement window:
// the cached variant needs long runs for the one-time page fills to
// amortize, or short-run warm-up noise masks the steady-state hit cost.
func initBenchtime() {
	testing.Init()
	if err := flag.Set("test.benchtime", "5s"); err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
}

func runZipfVariant(cached bool) benchRecord {
	cfg := defaultZipfConfig
	name := "PoolZipfReadMostly/uncached"
	if cached {
		name = "PoolZipfReadMostly/cached"
	}
	var hitRate float64
	var readLat lmp.LatencyStats
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		hitRate, readLat = zipfWorkload(b, cfg, cached)
	})
	if res.N == 0 {
		fmt.Fprintln(os.Stderr, "lmpbench: benchmark produced no iterations")
		os.Exit(1)
	}
	return benchRecord{
		Name:        name,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		HitRate:     hitRate,
		ReadP50NS:   readLat.P50NS,
		ReadP99NS:   readLat.P99NS,
		ReadP999NS:  readLat.P999NS,
		Config:      cfg,
	}
}

// zipfWorkload is the borrower/lender locality story in miniature, the
// same shape as the repo's BenchmarkPoolZipfReadMostly: hosts lend most
// of their DRAM, a compute server shares nothing and reads a striped
// shared buffer with Zipf-skewed page popularity, plus a small stream of
// private remote writes. Returns the cache hit rate (zero uncached) and
// the sampled read-latency distribution from the pool's own histograms.
func zipfWorkload(b *testing.B, cfg zipfConfig, cached bool) (float64, lmp.LatencyStats) {
	pcfg := lmp.Config{Placement: lmp.Striped}
	for s := 0; s < cfg.Hosts; s++ {
		pcfg.Servers = append(pcfg.Servers, lmp.ServerConfig{
			Name:     fmt.Sprintf("host%d", s),
			Capacity: 40 * lmp.SliceSize, SharedBytes: 32 * lmp.SliceSize,
		})
	}
	compute := lmp.ServerID(cfg.Hosts)
	pcfg.Servers = append(pcfg.Servers, lmp.ServerConfig{
		Name: "compute", Capacity: 64 * lmp.SliceSize,
	})
	var opts []lmp.Option
	if cached {
		opts = append(opts, lmp.WithLocalCache(lmp.CacheConfig{}))
	}
	pool, err := lmp.New(pcfg, opts...)
	if err != nil {
		panic(err)
	}
	shared, err := pool.Alloc(int64(cfg.SharedSlices)*lmp.SliceSize, 0)
	if err != nil {
		panic(err)
	}
	seed := make([]byte, 4096)
	for i := range seed {
		seed[i] = byte(i)
	}
	for off := int64(0); off < shared.Size(); off += int64(len(seed)) {
		if err := pool.Write(0, shared.Addr()+lmp.Logical(off), seed); err != nil {
			panic(err)
		}
	}
	own := make([]*lmp.Buffer, cfg.Workers)
	for w := range own {
		if own[w], err = pool.Alloc(lmp.SliceSize, compute); err != nil {
			panic(err)
		}
	}

	const pageSize = 4096
	pages := shared.Size() / pageSize
	perm := rand.New(rand.NewSource(1)).Perm(int(pages))
	abytes := int64(cfg.AccessBytes)
	sequences := make([][]lmp.Logical, cfg.Workers)
	for w := range sequences {
		r := rand.New(rand.NewSource(int64(w) + 42))
		z := rand.NewZipf(r, cfg.ZipfS, 1, uint64(pages-1))
		seq := make([]lmp.Logical, 1<<12)
		for i := range seq {
			pageOff := int64(perm[z.Uint64()]) * pageSize
			inPage := (int64(i) * abytes) & (pageSize - abytes)
			seq[i] = shared.Addr() + lmp.Logical(pageOff+inPage)
		}
		sequences[w] = seq
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		w := w
		n := b.N / cfg.Workers
		if w == 0 {
			n += b.N % cfg.Workers
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rbuf := make([]byte, cfg.AccessBytes)
			wbuf := make([]byte, cfg.AccessBytes)
			seq := sequences[w]
			writeSpan := int64(lmp.SliceSize) - abytes
			for i := 0; i < n; i++ {
				if i%cfg.WriteEvery == cfg.WriteEvery-1 {
					woff := (int64(i) * abytes) % writeSpan
					if err := pool.Write(compute, own[w].Addr()+lmp.Logical(woff), wbuf); err != nil {
						panic(err)
					}
					continue
				}
				if err := pool.Read(compute, seq[i&(len(seq)-1)], rbuf); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	ps := pool.Stats()
	st := pool.CacheStats()
	if total := st.Hits + st.Misses; total > 0 {
		return float64(st.Hits) / float64(total), ps.ReadLatency
	}
	return 0, ps.ReadLatency
}

// writeBenchJSON runs both variants and writes the baseline file.
func writeBenchJSON(path string) {
	initBenchtime()
	out := benchFile{Schema: 1}
	for _, cached := range []bool{false, true} {
		rec := runZipfVariant(cached)
		fmt.Printf("%-32s %10.2f ns/op %6d B/op %4d allocs/op hitrate=%.4f p50=%.0fns p99=%.0fns p99.9=%.0fns\n",
			rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp, rec.HitRate,
			rec.ReadP50NS, rec.ReadP99NS, rec.ReadP999NS)
		out.Benchmarks = append(out.Benchmarks, rec)
	}
	out.RPC = runRPCSection(false)
	out.Repair = runRepairSection(false)
	out.Tail = runTailSection(false)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// compareBenchJSON re-runs the workload and fails (exit 1) when any
// variant's ns/op regresses more than compareTolerance over the
// baseline. Improvements are reported, never fatal.
func compareBenchJSON(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %s: %v\n", path, err)
		os.Exit(1)
	}
	initBenchtime()
	failed := false
	for _, b := range base.Benchmarks {
		if b.Config != defaultZipfConfig {
			fmt.Fprintf(os.Stderr, "lmpbench: %s: baseline %q was recorded with a different workload config; regenerate with -json\n",
				path, b.Name)
			os.Exit(1)
		}
		cur := runZipfVariant(strings.HasSuffix(b.Name, "/cached"))
		delta := (cur.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok"
		if delta > compareTolerance {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-32s baseline %10.2f ns/op  now %10.2f ns/op  %+6.1f%%  %s\n",
			b.Name, b.NsPerOp, cur.NsPerOp, delta*100, verdict)
	}
	if len(base.RPC) == 0 {
		fmt.Println("baseline predates the rpc throughput section; skipping rpc compare")
	} else {
		cur := runRPCSection(true)
		for _, b := range base.RPC {
			if b.Config != defaultRPCConfig {
				fmt.Fprintf(os.Stderr, "lmpbench: %s: rpc baseline %q was recorded with a different workload config; regenerate with -json\n",
					path, b.Name)
				os.Exit(1)
			}
			if b.SpeedupVsSerial == 0 {
				continue // the serialized record; its ops/s is the ratio's denominator
			}
			for _, c := range cur {
				if c.Name != b.Name {
					continue
				}
				// Absolute ops/s tracks the machine, not the code, so the
				// regression gate is the pipelining speedup ratio — both
				// variants jitter together and the ratio cancels it. Ratio
				// noise still runs wider than ns/op noise on loaded boxes,
				// hence the doubled tolerance.
				delta := (b.SpeedupVsSerial - c.SpeedupVsSerial) / b.SpeedupVsSerial
				verdict := "ok"
				if delta > 2*compareTolerance {
					verdict = "REGRESSION"
					failed = true
				}
				fmt.Printf("%-32s baseline %9.2fx speedup  now %9.2fx  %+6.1f%%  %s\n",
					b.Name, b.SpeedupVsSerial, c.SpeedupVsSerial, -delta*100, verdict)
			}
		}
	}
	if len(base.Repair) == 0 {
		fmt.Println("baseline predates the repair/migration section; skipping repair compare")
	} else {
		cur := runRepairSection(true)
		for _, b := range base.Repair {
			if b.Config != defaultRepairBenchConfig {
				fmt.Fprintf(os.Stderr, "lmpbench: %s: repair baseline %q was recorded with a different workload config; regenerate with -json\n",
					path, b.Name)
				os.Exit(1)
			}
			// Only the worker-scaling ratio gates: absolute MB/s and raw
			// p99 track the machine, while the ratio cancels shared jitter
			// (same posture and doubled tolerance as the rpc speedup).
			// This also skips the migration records of BENCH_9/10, whose
			// serialized arm and p99 ratio this build no longer measures.
			if b.SpeedupVs1W == 0 {
				continue
			}
			for _, c := range cur {
				if c.Name != b.Name {
					continue
				}
				delta := (b.SpeedupVs1W - c.SpeedupVs1W) / b.SpeedupVs1W
				verdict := "ok"
				if delta > 2*compareTolerance {
					verdict = "REGRESSION"
					failed = true
				}
				fmt.Printf("%-32s baseline %9.2fx ratio  now %9.2fx  %+6.1f%%  %s\n",
					b.Name, b.SpeedupVs1W, c.SpeedupVs1W, -delta*100, verdict)
			}
		}
	}
	if len(base.Tail) == 0 {
		fmt.Println("baseline predates the tail latency section; skipping tail compare")
	} else {
		cur := runTailSection(true)
		for _, b := range base.Tail {
			if b.Config != defaultTailConfig {
				fmt.Fprintf(os.Stderr, "lmpbench: %s: tail baseline %q was recorded with a different workload config; regenerate with -json\n",
					path, b.Name)
				os.Exit(1)
			}
			// Only the hedged record's improvement ratio gates: raw
			// percentiles track the machine, the ratio cancels shared
			// jitter (same posture and doubled tolerance as rpc/repair).
			if b.P99ImprovementX == 0 {
				continue
			}
			for _, c := range cur {
				if c.Name != b.Name {
					continue
				}
				delta := (b.P99ImprovementX - c.P99ImprovementX) / b.P99ImprovementX
				verdict := "ok"
				if delta > 2*compareTolerance {
					verdict = "REGRESSION"
					failed = true
				}
				fmt.Printf("%-32s baseline %9.2fx ratio  now %9.2fx  %+6.1f%%  %s\n",
					b.Name, b.P99ImprovementX, c.P99ImprovementX, -delta*100, verdict)
			}
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "lmpbench: ns/op regressed more than %.0f%% against %s\n",
			compareTolerance*100, path)
		os.Exit(1)
	}
}
