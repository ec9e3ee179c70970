package memnode

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// processPages reads field i of /proc/self/statm (0 = VmSize, 1 =
// resident), in pages.
func processPages(t *testing.T, i int) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no /proc/self/statm: %v", err)
	}
	v, err := strconv.ParseInt(strings.Fields(string(b))[i], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func minorFaults(t *testing.T) int64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return ru.Minflt
}

// TestFirstTouchFaultsOncePerPage: writing fresh memory costs at most
// one page fault per page (far fewer where huge pages are to be had),
// whatever the write size. The heap-page store this replaced took two —
// a read fault from the nil check on the fresh page, then the
// copy-on-write fault.
func TestFirstTouchFaultsOncePerPage(t *testing.T) {
	const region = 32 << 20
	for _, step := range []int{1 << 20, 64} {
		n := mustNode(t, region, region)
		p := make([]byte, step)
		for i := range p {
			p[i] = 0xA5
		}
		before := minorFaults(t)
		for off := int64(0); off < region; off += int64(step) {
			if err := n.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
		}
		faults, pages := minorFaults(t)-before, int64(region/PageSize)
		t.Logf("%d-byte writes: %d faults for %d pages", step, faults, pages)
		if faults > pages+pages/20 {
			t.Errorf("%d-byte writes: %d faults for %d fresh pages, want at most one each", step, faults, pages)
		}
	}
}

// TestDropRangeReturnsMemory: dropping a range shrinks the process, not a
// counter. 64MiB keeps the runtime's own noise under 5%.
func TestDropRangeReturnsMemory(t *testing.T) {
	const region = 64 << 20
	n := mustNode(t, region, region)
	p := make([]byte, 1<<20)
	for i := range p {
		p[i] = 1
	}
	for off := int64(0); off < region; off += int64(len(p)) {
		if err := n.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	if r := n.ResidentBytes(); r < region {
		t.Fatalf("ResidentBytes = %d after writing %d", r, region)
	}
	full := processPages(t, 1)
	n.dropRange(0, region)
	if fell := (full - processPages(t, 1)) * PageSize; fell < 56<<20 {
		t.Fatalf("resident set fell by %d MiB after dropping 64 MiB, want >= 56", fell>>20)
	}
	if r := n.ResidentBytes(); r != 0 {
		t.Fatalf("ResidentBytes = %d after dropping everything", r)
	}
	if err := n.ReadAt(p[:PageSize], region/2); err != nil || p[0] != 0 {
		t.Fatalf("dropped memory reads %d, %v", p[0], err)
	}

	// The same through the sizing path: shrink the shared region.
	for off := int64(0); off < region; off += int64(len(p)) {
		p[0] = 2
		if err := n.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	full = processPages(t, 1)
	if err := n.Resize(4 << 20); err != nil {
		t.Fatal(err)
	}
	if fell := (full - processPages(t, 1)) * PageSize; fell < 52<<20 {
		t.Fatalf("resident set fell by %d MiB after shrinking 64 MiB to 4, want >= 52", fell>>20)
	}
	if r := n.ResidentBytes(); r > 4<<20 {
		t.Fatalf("ResidentBytes = %d after shrinking to 4 MiB", r)
	}

	// And through a tenant leaving: a freed extent is not resident.
	off, err := n.Alloc(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for at := off; at < off+2<<20; at += int64(len(p)) {
		if err := n.WriteAt(p, at); err != nil {
			t.Fatal(err)
		}
	}
	held := n.ResidentBytes()
	if _, err := n.Free(off); err != nil {
		t.Fatal(err)
	}
	if fell := held - n.ResidentBytes(); fell != 2<<20 {
		t.Fatalf("ResidentBytes fell by %d across the free of a 2 MiB extent", fell)
	}
}

// TestResidentBytesCountsOwnPages: two nodes reserved back to back are
// accounted apart (the guard page keeps the kernel from merging their
// mappings), and a small node counts exactly the pages written.
func TestResidentBytesCountsOwnPages(t *testing.T) {
	a, b := mustNode(t, 1<<20, 1<<20), mustNode(t, 1<<20, 1<<20)
	if err := a.WriteAt(make([]byte, 3*PageSize), PageSize-100); err != nil {
		t.Fatal(err)
	}
	if ra, rb := a.ResidentBytes(), b.ResidentBytes(); ra != 4*PageSize || rb != 0 {
		t.Fatalf("resident: a = %d (want 4 pages), b = %d (want 0)", ra, rb)
	}
}

// TestNodeLifetime: a node's mapping goes when the collector finds the
// node unreachable, and never sooner. 2000 rounds reserve 64MiB each
// (125GiB in all) and drop the reference while a reader goroutine is
// still copying out of it: the address space stays bounded, and a
// mapping pulled from under a reader would fault the process.
func TestNodeLifetime(t *testing.T) {
	const region = 64 << 20
	base := processPages(t, 0)
	var readers sync.WaitGroup
	for round := 1; round <= 2000; round++ {
		n := mustNode(t, region, region)
		if err := n.WriteAt([]byte{byte(round)}, region-PageSize); err != nil {
			t.Fatal(err)
		}
		if round%50 == 0 {
			readers.Add(1)
			go func(n *Node, want byte) {
				defer readers.Done()
				p := make([]byte, PageSize)
				for i := 0; i < 200; i++ {
					if err := n.ReadAt(p, region-PageSize); err != nil || p[0] != want {
						t.Errorf("reader of a dropped node: %d, %v", p[0], err)
						return
					}
					runtime.Gosched()
				}
			}(n, byte(round))
		}
		if round%100 == 0 {
			runtime.GC()
		}
	}
	readers.Wait()
	// Finalizers run on their own goroutine after the cycle that found
	// the nodes dead: collect until the mappings are gone. The bound is
	// 2GiB of the 125GiB reserved, not a few regions: under the race
	// detector every OS thread the runtime starts meanwhile (more of them
	// the higher GOMAXPROCS) reserves a 64MiB malloc arena of its own,
	// which is address space this test did not map and cannot give back.
	limit := base + 32*region/PageSize
	deadline := time.Now().Add(10 * time.Second)
	for processPages(t, 0) > limit {
		if time.Now().After(deadline) {
			t.Fatalf("address space still %d MiB over the start after the last node died",
				(processPages(t, 0)-base)*PageSize>>20)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
