// Ablation benchmarks for the design choices called out in DESIGN.md,
// the fabric experiments behind §2.1 and §4.2, and microbenchmarks of the
// functional runtime. Simulated metrics (bandwidth, ratio) are reported
// via b.ReportMetric; for those the wall-clock ns/op measures only the
// harness. The paper's tables and figures are printed by cmd/lmpbench.
package lmp_test

import (
	"fmt"
	"testing"

	lmp "github.com/lmp-project/lmp"
	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/coherence"
	"github.com/lmp-project/lmp/internal/fabric"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/memsim"
	"github.com/lmp-project/lmp/internal/sim"
)

// BenchmarkAblationTranslation compares the two-step scheme as the
// runtime performs it (Pool.Translate: the slice's replicated entry names
// the owner and the extent, the in-slice offset finishes the address)
// against the flat page directory §5 rejects, on lookup cost and
// footprint.
func BenchmarkAblationTranslation(b *testing.B) {
	const bufBytes = 1 << 30

	b.Run("two-step", func(b *testing.B) {
		// Lent memory is address space until touched: a 1 GiB buffer
		// nobody writes costs its slice entries and nothing else.
		cfg := lmp.Config{Placement: lmp.Striped}
		for s := 0; s < 4; s++ {
			cfg.Servers = append(cfg.Servers, lmp.ServerConfig{Capacity: bufBytes / 4, SharedBytes: bufBytes / 4})
		}
		pool, err := lmp.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		buf, err := pool.Alloc(bufBytes, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := buf.Addr() + addr.Logical((uint64(i)*4096)%bufBytes)
			if _, err := pool.Translate(a); err != nil {
				b.Fatal(err)
			}
		}
		flat, two := addr.EntriesPerBuffer(bufBytes, 12)
		b.ReportMetric(float64(two), "map-entries")
		b.ReportMetric(float64(flat)/float64(two), "flat-entry-blowup")
		b.ReportMetric(0, "remote-lookup-frac") // coarse map is replicated
	})

	b.Run("flat-directory", func(b *testing.B) {
		d, err := addr.NewFlatDirectory(12)
		if err != nil {
			b.Fatal(err)
		}
		for p := int64(0); p < bufBytes/4096; p++ {
			d.Map(addr.Logical(p*4096), addr.Location{Server: 1, Offset: p * 4096})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := addr.Logical((uint64(i) * 4096) % bufBytes)
			if _, err := d.Translate(a); err != nil {
				b.Fatal(err)
			}
		}
		flat, _ := addr.EntriesPerBuffer(bufBytes, 12)
		b.ReportMetric(float64(flat), "map-entries")
		// With 4 servers and the directory homed on one, 3/4 of lookups
		// from a random server would cross the fabric.
		b.ReportMetric(0.75, "remote-lookup-frac")
	})
}

// BenchmarkAblationMigration measures the remote-access fraction of a
// skewed workload with the locality balancer on versus off.
func BenchmarkAblationMigration(b *testing.B) {
	run := func(b *testing.B, balance bool) {
		var remoteFrac float64
		for i := 0; i < b.N; i++ {
			cfg := lmp.Config{Placement: lmp.LocalityAware}
			for s := 0; s < 4; s++ {
				cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
					Capacity: 16 * lmp.SliceSize, SharedBytes: 16 * lmp.SliceSize,
				})
			}
			pool, err := lmp.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			buf, err := pool.Alloc(4*lmp.SliceSize, 0)
			if err != nil {
				b.Fatal(err)
			}
			p := make([]byte, 64)
			// Server 3 scans the buffer repeatedly; balancer runs between
			// epochs when enabled. An epoch reads each slice 16 times, the
			// balancer's minimum access count, so one epoch is enough to
			// justify a move.
			for epoch := 0; epoch < 4; epoch++ {
				for off := int64(0); off < 4; off++ {
					for r := 0; r < 16; r++ {
						if err := pool.Read(3, buf.Addr()+addr.Logical(off*lmp.SliceSize), p); err != nil {
							b.Fatal(err)
						}
					}
				}
				if balance {
					if _, err := pool.BalanceOnce(); err != nil {
						b.Fatal(err)
					}
				}
			}
			reads := pool.Stats().Reads
			remote, local := float64(reads.RemoteOps), float64(reads.LocalOps)
			remoteFrac = remote / (remote + local)
		}
		b.ReportMetric(remoteFrac, "remote-frac")
	}
	b.Run("balancer-on", func(b *testing.B) { run(b, true) })
	b.Run("balancer-off", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationCoherenceGranularity measures false-sharing
// invalidations per operation at cache-line versus sub-cache-line
// tracking (§5 "Cache coherence").
func BenchmarkAblationCoherenceGranularity(b *testing.B) {
	for _, gran := range []int64{64, 8} {
		gran := gran
		b.Run(fmt.Sprintf("%dB", gran), func(b *testing.B) {
			d, err := coherence.NewDirectory(gran, 1024)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Two nodes write adjacent 8-byte fields of one line.
				if _, err := d.AcquireWrite(0, 0); err != nil {
					b.Fatal(err)
				}
				if _, err := d.AcquireWrite(1, 8); err != nil {
					b.Fatal(err)
				}
			}
			st := d.Stats()
			b.ReportMetric(float64(st.Invalidations)/float64(b.N), "invalidations/op")
		})
	}
}

// BenchmarkAblationFailure compares replication and erasure coding on
// recovery cost and space overhead.
func BenchmarkAblationFailure(b *testing.B) {
	const shard = 64 << 10
	b.Run("replicate-2x", func(b *testing.B) {
		src := make([]byte, shard)
		for i := range src {
			src[i] = byte(i)
		}
		dst := make([]byte, shard)
		b.SetBytes(shard)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(dst, src) // recovery = copy from the surviving replica
		}
		b.ReportMetric(2.0, "space-overhead")
		b.ReportMetric(1, "crashes-tolerated")
	})
	b.Run("erasure-rs-4-2", func(b *testing.B) {
		rs, err := failure.NewRS(4, 2)
		if err != nil {
			b.Fatal(err)
		}
		data := make([][]byte, 4)
		for i := range data {
			data[i] = make([]byte, shard)
			for j := range data[i] {
				data[i][j] = byte(i + j)
			}
		}
		parity, err := rs.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(shard)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shards := [][]byte{nil, data[1], data[2], data[3], parity[0], parity[1]}
			if _, err := rs.Reconstruct(shards); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(1.5, "space-overhead")
		b.ReportMetric(2, "crashes-tolerated")
	})
}

// BenchmarkAblationPlacement reports the local-access fraction a single
// accessor sees under each placement policy.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, pol := range []alloc.Policy{alloc.LocalityAware, alloc.Striped, alloc.FirstFit, alloc.RoundRobin} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var localFrac float64
			for i := 0; i < b.N; i++ {
				cfg := lmp.Config{Placement: pol}
				for s := 0; s < 4; s++ {
					cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
						Capacity: 16 * lmp.SliceSize, SharedBytes: 16 * lmp.SliceSize,
					})
				}
				pool, err := lmp.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				buf, err := pool.Alloc(8*lmp.SliceSize, 0)
				if err != nil {
					b.Fatal(err)
				}
				p := make([]byte, 64)
				for off := int64(0); off < 8; off++ {
					if err := pool.Read(0, buf.Addr()+addr.Logical(off*lmp.SliceSize), p); err != nil {
						b.Fatal(err)
					}
				}
				reads := pool.Stats().Reads
				local, remote := float64(reads.LocalOps), float64(reads.RemoteOps)
				localFrac = local / (local + remote)
			}
			b.ReportMetric(localFrac, "local-frac")
		})
	}
}

// BenchmarkIncastPoolPorts models §4.2's incast concern: a physical pool
// whose device has only one switch port versus the thick (4-port) link.
func BenchmarkIncastPoolPorts(b *testing.B) {
	for _, ports := range []int{1, 4} {
		ports := ports
		b.Run(fmt.Sprintf("%d-port", ports), func(b *testing.B) {
			link := memsim.Link1()
			var agg float64
			for i := 0; i < b.N; i++ {
				// All four servers stream 8GB each from the device.
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
					b.Fatal(err)
				}
				agg = res.AggregateBandwidth()
			}
			b.ReportMetric(agg/1e9, "sim-aggregate-GBps")
		})
	}
}

// BenchmarkRackScalePBR measures the rack-scale fabric (CXL 3 GFAM with
// port-based routing): same-leaf versus cross-leaf streaming bandwidth.
func BenchmarkRackScalePBR(b *testing.B) {
	run := func(b *testing.B, crossLeaf bool) {
		var bw float64
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			rack, err := fabric.NewRack(eng, 2, memsim.Link1(), memsim.LocalDRAM(), 4, 30)
			if err != nil {
				b.Fatal(err)
			}
			src, err := rack.AddEndpoint(0, "src")
			if err != nil {
				b.Fatal(err)
			}
			dstLeaf := 0
			if crossLeaf {
				dstLeaf = 1
			}
			dst, err := rack.AddEndpoint(dstLeaf, "dst")
			if err != nil {
				b.Fatal(err)
			}
			const total = 4 << 20
			const chunk = 4096
			remaining := total / chunk
			inflight := 0
			var pump func()
			pump = func() {
				for remaining > 0 && inflight < 32 {
					remaining--
					inflight++
					if err := rack.Read(dst, src, chunk, func() {
						inflight--
						pump()
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
			pump()
			eng.Run()
			bw = float64(total) / eng.Now().Sub(0).Seconds()
		}
		b.ReportMetric(bw/1e9, "sim-GBps")
	}
	b.Run("same-leaf", func(b *testing.B) { run(b, false) })
	b.Run("cross-leaf", func(b *testing.B) { run(b, true) })
}

// BenchmarkSoftwareVsHardwareDisaggregation quantifies §2.1's motivation:
// CXL load-store remote memory versus paging-based software far memory.
func BenchmarkSoftwareVsHardwareDisaggregation(b *testing.B) {
	var cmp memsim.DisaggregationComparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = memsim.CompareDisaggregation(memsim.Link1(), memsim.DefaultCore(), memsim.RDMASwap())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.HardwareSeqBps/1e9, "hw-seq-GBps")
	b.ReportMetric(cmp.SoftwareSeqBps/1e9, "sw-seq-GBps")
	b.ReportMetric(cmp.HardwareRandBps/cmp.SoftwareRandBps, "hw-rand-advantage")
}

// Functional-runtime microbenchmarks: the real cost of pool operations.
func BenchmarkPoolAccess(b *testing.B) {
	cfg := lmp.Config{Placement: lmp.LocalityAware}
	for s := 0; s < 4; s++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Capacity: 32 * lmp.SliceSize, SharedBytes: 32 * lmp.SliceSize,
		})
	}
	pool, err := lmp.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := pool.Alloc(4*lmp.SliceSize, 0)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	if err := pool.Write(0, buf.Addr(), payload); err != nil {
		b.Fatal(err)
	}
	b.Run("read-local-4k", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if err := pool.Read(0, buf.Addr(), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-remote-4k", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if err := pool.Read(3, buf.Addr(), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-local-4k", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if err := pool.Write(0, buf.Addr(), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("translate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pool.Translate(buf.Addr() + addr.Logical(i%4096)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
