// Command lmpd runs one LMP server daemon: it exports a shared region of
// this host's memory over TCP so peers (and lmpctl) can allocate, read,
// write, ship reductions, and resize the private/shared split — the live
// functional mode of the logical memory pool.
//
// Alongside the data port, lmpd serves an operations HTTP listener with
// Prometheus metrics (/metrics), a typed JSON snapshot (/stats), recent
// trace spans (/spans), and runtime profiles (/debug/pprof/). A request
// leaves a span only when its caller traced it, or when it failed or
// crossed the slow-op threshold; slow ones are also logged.
//
// Usage:
//
//	lmpd -listen :7070 -capacity 1073741824 -shared 536870912
//	lmpd -listen :7070 -ops 127.0.0.1:7071 -slowop 5ms
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/lmp-project/lmp/internal/daemon"
	"github.com/lmp-project/lmp/internal/obs"
	"github.com/lmp-project/lmp/internal/telemetry"
)

var (
	listen   = flag.String("listen", "127.0.0.1:7070", "address to listen on")
	name     = flag.String("name", "lmpd", "server name reported to peers")
	capacity = flag.Int64("capacity", 1<<30, "server DRAM capacity in bytes")
	shared   = flag.Int64("shared", 1<<29, "initial shared-region size in bytes")
	opsAddr  = flag.String("ops", "127.0.0.1:0", "operations HTTP address (/metrics, /stats, /spans, /debug/pprof); empty disables")
	slowOp   = flag.Duration("slowop", 10*time.Millisecond, "slow-op log threshold; negative disables")
)

func main() {
	flag.Parse()
	srv, err := daemon.NewServer(*name, *capacity, *shared)
	if err != nil {
		log.Fatalf("lmpd: %v", err)
	}
	srv.SetSlowOpNS(int64(*slowOp))
	srv.OnSlowOp(func(sp telemetry.Span) {
		log.Printf("lmpd: slow op %s: %.3fms trace=%x err=%v",
			sp.Op, float64(sp.DurationNS)/1e6, sp.Trace, sp.Err)
	})
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("lmpd: %v", err)
	}
	fmt.Printf("lmpd %q serving %d bytes shared (of %d) on %s\n", *name, *shared, *capacity, addr)

	var ops *obs.Server
	if *opsAddr != "" {
		ops, err = obs.Serve(*opsAddr, obs.Source{
			Metrics: srv.Metrics,
			Stats:   func() any { return srv.Stats() },
			Spans:   srv.TraceSpans,
		})
		if err != nil {
			log.Fatalf("lmpd: ops listener: %v", err)
		}
		fmt.Printf("lmpd ops on http://%s (/metrics /stats /spans /debug/pprof)\n", ops.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("lmpd: shutting down")
	if ops != nil {
		_ = ops.Close()
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("lmpd: close: %v", err)
	}
}
