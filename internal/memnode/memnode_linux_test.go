package memnode

import (
	"bytes"
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

// threadMinorFaults counts the calling thread's minor faults
// (RUSAGE_THREAD); the caller locks its goroutine to the thread.
func threadMinorFaults(t *testing.T) int64 {
	t.Helper()
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
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

// populatorState reports whether the node's populator is running, and
// whether the host refused to populate.
func populatorState(n *Node) (busy, refused bool) {
	n.allocMu.Lock()
	defer n.allocMu.Unlock()
	return n.populating, n.noPopulate
}

// waitDrained waits until the node's populator has emptied its queue
// and exited, and skips the test where the kernel cannot populate
// (MADV_POPULATE_WRITE is Linux 5.14).
func waitDrained(t *testing.T, n *Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy, refused := populatorState(n)
		if refused {
			t.Skip("the kernel does not know MADV_POPULATE_WRITE (before Linux 5.14)")
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the populator did not drain in 5 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllocPopulatesWholeHugePages: a granted extent's whole huge pages
// become resident without a write, so the tenant's first pass over them
// takes no page faults; without population it takes one per huge page
// (16 here) or more. An extent smaller than a huge page, and the part of
// an extent that only partly covers one, are left to first touch.
func TestAllocPopulatesWholeHugePages(t *testing.T) {
	const extent = 32 << 20
	n := mustNode(t, 64<<20, 64<<20)
	off, err := n.Alloc(extent)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.ResidentBytes() != extent {
		if time.Now().After(deadline) {
			waitDrained(t, n) // skips where the kernel cannot populate
			t.Fatalf("resident %d MiB 5 s after granting %d MiB, want all of it", n.ResidentBytes()>>20, extent>>20)
		}
		time.Sleep(time.Millisecond)
	}
	// Count the writing thread's faults alone: the collector and the
	// previous test's finalizers fault pages of their own meanwhile.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p := bytes.Repeat([]byte{0x5A}, 1<<20)
	before := threadMinorFaults(t)
	for at := off; at < off+extent; at += int64(len(p)) {
		if err := n.WriteAt(p, at); err != nil {
			t.Fatal(err)
		}
	}
	faults := threadMinorFaults(t) - before
	t.Logf("writing a populated %d MiB extent took %d minor faults", extent>>20, faults)
	if faults > 8 {
		t.Errorf("writing a populated %d MiB extent took %d minor faults, want <= 8", extent>>20, faults)
	}

	// [32 MiB, 35 MiB): one whole huge page and a 1 MiB tail; then
	// [35 MiB, 36 MiB), inside a huge page of its own.
	if _, err := n.Alloc(3 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n)
	if got, want := n.ResidentBytes(), int64(extent+hugePage); got != want {
		t.Errorf("resident %d KiB after granting a 3 MiB and a 1 MiB extent, want %d: only whole huge pages are populated", got>>10, want>>10)
	}
}

// TestDropOrdersAfterPopulate: a Free, or a shrinking Resize, issued
// right after an Alloc while the extent is still being populated leaves
// nothing resident once the populator has drained — no populate lands
// on memory after it was dropped.
func TestDropOrdersAfterPopulate(t *testing.T) {
	const extent = 64 << 20
	n := mustNode(t, 2*extent, 2*extent)
	for round := 0; round < 40; round++ {
		off, err := n.Alloc(extent)
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			// Free in the middle of the populate rather than before it
			// could start: populating 64 MiB takes milliseconds.
			for n.ResidentBytes() == 0 {
				if busy, _ := populatorState(n); !busy {
					break
				}
				runtime.Gosched()
			}
		}
		if _, err := n.Free(off); err != nil {
			t.Fatal(err)
		}
		// Two extents; the upper one goes, and the shrink cuts its range
		// while the lower one is still being populated.
		low, err := n.Alloc(extent)
		if err != nil {
			t.Fatal(err)
		}
		high, err := n.Alloc(extent)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Free(high); err != nil {
			t.Fatal(err)
		}
		if err := n.Resize(extent); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Free(low); err != nil {
			t.Fatal(err)
		}
		if err := n.Resize(2 * extent); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, n)
	if r := n.ResidentBytes(); r != 0 {
		t.Fatalf("%d KiB resident with nothing granted", r>>10)
	}
}
