// Command lmptrace records and replays memory access traces against a
// logical pool, the repeatable-experiment workflow: generate a workload
// once, save the binary trace, replay it under different placement
// policies or pool configurations and compare locality.
//
// Usage:
//
//	lmptrace record -kind zipf -span 16777216 -count 100000 -out trace.lmpt
//	lmptrace replay -in trace.lmpt -placement striped -servers 4
//	lmptrace stat   -in trace.lmpt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	lmp "github.com/lmp-project/lmp"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/workload"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lmptrace {record|replay|stat} [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "stat":
		stat(os.Args[2:])
	default:
		usage()
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	kind := fs.String("kind", "zipf", "workload kind: seq, uniform, zipf")
	span := fs.Int64("span", 16<<20, "address span in bytes")
	stride := fs.Int("stride", 64, "access size in bytes")
	count := fs.Int("count", 100000, "number of accesses")
	skew := fs.Float64("skew", 1.2, "zipf skew (>1)")
	writes := fs.Float64("writes", 0.1, "write fraction for uniform workloads")
	seed := fs.Int64("seed", 1, "rng seed")
	out := fs.String("out", "trace.lmpt", "output file")
	_ = fs.Parse(args)

	var g workload.Generator
	var err error
	switch *kind {
	case "seq":
		g, err = workload.NewSequential(0, *span, *stride)
	case "uniform":
		g, err = workload.NewUniform(0, *span, *stride, *count, *writes, *seed)
	case "zipf":
		g, err = workload.NewZipf(0, *span, *stride, *count, *skew, *seed)
	default:
		log.Fatalf("lmptrace: unknown kind %q", *kind)
	}
	if err != nil {
		log.Fatalf("lmptrace: %v", err)
	}
	tr := workload.Record(g)
	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("lmptrace: %v", err)
	}
	defer f.Close()
	n, err := tr.WriteTo(f)
	if err != nil {
		log.Fatalf("lmptrace: %v", err)
	}
	fmt.Printf("recorded %d accesses (%d bytes) to %s\n", len(tr.Accesses), n, *out)
}

func loadTrace(path string) *workload.Trace {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("lmptrace: %v", err)
	}
	defer f.Close()
	tr, err := workload.ReadTrace(f)
	if err != nil {
		log.Fatalf("lmptrace: %v", err)
	}
	return tr
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "trace.lmpt", "trace file")
	servers := fs.Int("servers", 4, "pool servers")
	placementName := fs.String("placement", "locality-aware", "placement: first-fit, round-robin, locality-aware, striped")
	accessor := fs.Int("accessor", 0, "issuing server")
	balanceEvery := fs.Int("balance-every", 0, "run a balancing round every N accesses (0 = off)")
	traceN := fs.Int("trace", 0, "trace every op and dump the last N spans (0 = off)")
	_ = fs.Parse(args)

	var placement alloc.Policy
	switch *placementName {
	case "first-fit":
		placement = alloc.FirstFit
	case "round-robin":
		placement = alloc.RoundRobin
	case "locality-aware":
		placement = alloc.LocalityAware
	case "striped":
		placement = alloc.Striped
	default:
		log.Fatalf("lmptrace: unknown placement %q", *placementName)
	}

	tr := loadTrace(*in)
	var span int64
	for _, a := range tr.Accesses {
		if end := a.Offset + int64(a.Size); end > span {
			span = end
		}
	}
	if span == 0 {
		log.Fatal("lmptrace: empty trace")
	}

	cfg := lmp.Config{Placement: placement}
	perServer := (span/int64(*servers) + 2*lmp.SliceSize) / lmp.SliceSize * lmp.SliceSize * 2
	for i := 0; i < *servers; i++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Name: fmt.Sprintf("server%d", i), Capacity: perServer, SharedBytes: perServer,
		})
	}
	if *traceN > 0 {
		cfg.Trace = lmp.TraceConfig{SampleEvery: 1, RingSize: *traceN, SlowOpNS: -1}
	}
	pool, err := lmp.New(cfg)
	if err != nil {
		log.Fatalf("lmptrace: %v", err)
	}
	buf, err := pool.Alloc(span, lmp.ServerID(*accessor))
	if err != nil {
		log.Fatalf("lmptrace: %v", err)
	}

	scratch := make([]byte, 1<<16)
	for i, a := range tr.Accesses {
		if a.Size > len(scratch) {
			scratch = make([]byte, a.Size)
		}
		p := scratch[:a.Size]
		if a.Write {
			err = pool.Write(lmp.ServerID(*accessor), buf.Addr()+lmp.Logical(a.Offset), p)
		} else {
			err = pool.Read(lmp.ServerID(*accessor), buf.Addr()+lmp.Logical(a.Offset), p)
		}
		if err != nil {
			log.Fatalf("lmptrace: access %d: %v", i, err)
		}
		if *balanceEvery > 0 && (i+1)%*balanceEvery == 0 {
			if _, err := pool.BalanceOnce(); err != nil {
				log.Fatalf("lmptrace: balance: %v", err)
			}
		}
	}

	st := pool.Stats()
	local := st.Reads.LocalOps + st.Writes.LocalOps
	remote := st.Reads.RemoteOps + st.Writes.RemoteOps
	total := local + remote
	fmt.Printf("replayed %d accesses under %s placement on %d servers\n",
		len(tr.Accesses), placement, *servers)
	fmt.Printf("locality: %d local / %d remote (%.1f%% local)\n",
		local, remote, 100*float64(local)/float64(total))
	fmt.Printf("migrations: %d\n", st.Migrations)
	if *traceN > 0 {
		spans := pool.TraceSpans()
		if len(spans) > *traceN {
			spans = spans[len(spans)-*traceN:]
		}
		fmt.Printf("last %d spans (%d recorded in total):\n", len(spans), pool.TracePublished())
		for _, sp := range spans {
			fmt.Printf("  trace=%x span=%x parent=%x op=%-20s server=%d bytes=%-6d %.3fus err=%v\n",
				sp.Trace, sp.ID, sp.Parent, sp.Op, sp.Server, sp.Bytes,
				float64(sp.DurationNS)/1e3, sp.Err)
		}
	}
}

func stat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("in", "trace.lmpt", "trace file")
	_ = fs.Parse(args)
	tr := loadTrace(*in)
	var bytes, writes int64
	var span int64
	for _, a := range tr.Accesses {
		bytes += int64(a.Size)
		if a.Write {
			writes++
		}
		if end := a.Offset + int64(a.Size); end > span {
			span = end
		}
	}
	fmt.Printf("accesses: %d\n", len(tr.Accesses))
	fmt.Printf("bytes:    %d\n", bytes)
	fmt.Printf("writes:   %d (%.1f%%)\n", writes, 100*float64(writes)/float64(len(tr.Accesses)))
	fmt.Printf("span:     %d\n", span)
}
