// Vectorsum reproduces the paper's §4 microbenchmark end to end:
//
//  1. the calibrated bandwidth model for the full-scale deployments
//     (internal/model: the numbers behind Figures 2-5), and
//  2. a live, scaled-down functional run: four lmpd daemons over TCP, a
//     vector striped across their shared regions, summed first by pulling
//     every byte to the client and then by shipping the kernel to the
//     data (§4.4).
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"github.com/lmp-project/lmp/internal/daemon"
	"github.com/lmp-project/lmp/internal/memsim"
	"github.com/lmp-project/lmp/internal/model"
	"github.com/lmp-project/lmp/internal/topology"
)

func main() {
	modeled()
	live()
}

func modeled() {
	fmt.Println("== modeled bandwidth (paper configuration: 4 servers, 96GB, Link1) ==")
	fmt.Printf("%-8s %-20s %12s\n", "Vector", "Deployment", "GB/s")
	for _, gb := range []int64{8, 24, 64, 96} {
		for _, k := range []struct {
			name string
			kind topology.Kind
		}{
			{"Logical", topology.Logical},
			{"Physical cache", topology.PhysicalCache},
			{"Physical no-cache", topology.PhysicalNoCache},
		} {
			res, err := model.VectorSumBandwidth(model.VectorSumConfig{
				Deployment:  topology.PaperDeployment(k.kind, memsim.Link1()),
				VectorBytes: gb * memsim.GB,
			})
			if err != nil {
				log.Fatal(err)
			}
			if res.Feasible {
				fmt.Printf("%-8s %-20s %12.1f\n", fmt.Sprintf("%dGB", gb), k.name, res.BandwidthBps/1e9)
			} else {
				fmt.Printf("%-8s %-20s %12s\n", fmt.Sprintf("%dGB", gb), k.name, "infeasible")
			}
		}
	}
	fmt.Println()
}

func live() {
	// The vector is a pool buffer striped by 2 MiB slice over the
	// daemons; each daemon's two slices lie back to back in its lent
	// memory, so a shipped sum sends it one kernel and gets back one
	// 8-byte partial.
	const daemons = 4
	fmt.Printf("== live run: %d daemons over TCP, 16MiB vector ==\n", daemons)
	var clients []*daemon.Client
	for i := 0; i < daemons; i++ {
		srv, err := daemon.NewServer(fmt.Sprintf("srv%d", i), 16<<20, 16<<20)
		if err != nil {
			log.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		c, err := daemon.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	view, err := daemon.NewPoolView(1<<20, clients...)
	if err != nil {
		log.Fatal(err)
	}
	const vector = 16 << 20
	buf, err := view.Alloc(vector)
	if err != nil {
		log.Fatal(err)
	}
	// Fill with word values so the expected sum is known.
	data := make([]byte, vector)
	var want float64
	for i := 0; i+8 <= len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], uint64(i/8%1024))
		want += float64(i / 8 % 1024)
	}
	if err := buf.WriteAt(data, 0); err != nil {
		log.Fatal(err)
	}

	t0 := time.Now()
	pulled, err := buf.PulledSum()
	if err != nil {
		log.Fatal(err)
	}
	pullTime := time.Since(t0)

	t1 := time.Now()
	shipped, err := buf.ShippedSum()
	if err != nil {
		log.Fatal(err)
	}
	shipTime := time.Since(t1)

	fmt.Printf("pulled sum  = %.0f (want %.0f) in %v — %d MiB crossed the fabric\n",
		pulled, want, pullTime.Round(time.Millisecond), vector>>20)
	fmt.Printf("shipped sum = %.0f (want %.0f) in %v — only %d partials crossed the fabric\n",
		shipped, want, shipTime.Round(time.Millisecond), daemons)
	fmt.Printf("shipping moved %.6f%% of the bytes and was %.1fx faster here\n",
		float64(daemons*8)/float64(vector)*100, float64(pullTime)/float64(shipTime))
}
