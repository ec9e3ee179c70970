package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// printEnv prints what a reader needs to place the numbers: they are
// this sandbox's, over loopback, and compare only with runs on the same
// shape of box.
func printEnv(w io.Writer) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit())
	fmt.Fprintln(w, "env: loopback TCP, not a real link; latencies are this sandbox's, not a CXL fabric's")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's revision, or "unknown" outside a git checkout
// (the driver's copy is not one).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
