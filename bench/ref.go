package main

import (
	"fmt"
	"io"
	"net"
)

// The machine reference is a diagnostic, not a correction. This sandbox
// shares its host: over minutes the same binary on the same inputs runs
// up to 1.6x slower and back (memory and kernel paths slow down, a pure
// ALU loop does not). The round-trip time of a 64-byte message between
// two goroutines over a loopback TCP connection, in the harness's own
// code, follows that state, so every run prints it next to its metrics
// (bench.ref_rtt_us in the traced run): two runs that disagree while
// their references disagree were taken on a different machine. Every
// metric is reported as measured.
type machineRef struct {
	ln     net.Listener
	client net.Conn
}

const refTrips = 100

func newMachineRef() (*machineRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errListen, err)
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, blockSize)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return // the client closed
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &machineRef{ln: ln, client: c}, nil
}

// sample returns nanoseconds per round trip: the median of three bursts
// of refTrips, about 3 ms in all, taken between rounds while no caller
// runs. A broken connection reads 0.
func (r *machineRef) sample() float64 {
	buf := make([]byte, blockSize)
	var bursts [3]float64
	for b := range bursts {
		start := now()
		for i := 0; i < refTrips; i++ {
			if _, err := r.client.Write(buf); err != nil {
				return 0
			}
			if _, err := io.ReadFull(r.client, buf); err != nil {
				return 0
			}
		}
		bursts[b] = float64(now()-start) / refTrips
	}
	return median(bursts[:])
}

// close ends the echo goroutine by closing its connection.
func (r *machineRef) close() {
	r.client.Close()
	r.ln.Close()
}
