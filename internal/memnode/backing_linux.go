package memnode

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// reserve maps the node's memory. It reserves inaccessible address space
// for the capacity plus one huge page, and opens the capacity (rounded up
// to a page) for access at the first huge-page boundary inside it.
// MAP_NORESERVE keeps a node larger than the host's RAM from being
// refused up front: pages are charged as they are touched. What stays
// inaccessible — always at least a page after the memory — makes an
// overrun fault instead of scribbling on a neighbour, and keeps the
// kernel from merging two nodes' memory into one area, which resident
// relies on. Huge pages are asked for best-effort: they turn 512
// first-touch faults per 2MiB into one.
func (n *Node) reserve() error {
	size := int((n.capacity + PageSize - 1) / PageSize * PageSize)
	whole, err := syscall.Mmap(-1, 0, size+hugePage, syscall.PROT_NONE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return err
	}
	head := int(-uintptr(unsafe.Pointer(unsafe.SliceData(whole))) % hugePage)
	mem := whole[head : head+size : head+size]
	if err := syscall.Mprotect(mem, syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
		_ = syscall.Munmap(whole) // the reservation failed as a whole; the first error is the one to report
		return err
	}
	_ = syscall.Madvise(mem, syscall.MADV_HUGEPAGE) // best-effort: EINVAL where huge pages are compiled out
	n.mem = mem[:n.capacity]
	runtime.SetFinalizer(n, func(*Node) {
		_ = syscall.Munmap(whole) // nothing to do about a failed unmap of unreachable memory
	})
	return nil
}

// release hands the whole pages [from, to) back to the kernel; they read
// as zeros on the next touch.
func (n *Node) release(from, to int64) {
	// MADV_DONTNEED on a private anonymous mapping cannot fail for an
	// aligned range inside it.
	_ = syscall.Madvise(n.mem[from:to:to], syscall.MADV_DONTNEED)
}

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14), which the
// syscall package does not name.
const madvPopulateWrite = 23

// populate faults in the pages [from, to) for writing — allocated and
// zeroed now, not at their first write — and reports false when the
// kernel does not know the advice (EINVAL), so the caller stops asking.
// Any other failure (memory pressure) leaves the range to first touch.
func (n *Node) populate(from, to int64) bool {
	err := syscall.Madvise(n.mem[from:to:to], madvPopulateWrite)
	runtime.KeepAlive(n)
	return !errors.Is(err, syscall.EINVAL)
}

// resident sums the Rss of the mapping's areas in /proc/self/smaps. The
// kernel counts there only pages it really allocated — mincore(2) would
// also report the shared zero page a read of untouched memory maps. It
// allocates only the file's text: the benchmark harness snapshots
// daemon.Server.Stats inside its allocation count.
func (n *Node) resident() int64 {
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		return 0
	}
	start := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(n.mem))))
	end := start + uint64(cap(n.mem))
	var total int64
	inside := false
	for _, line := range strings.Split(string(smaps), "\n") {
		if rss, ok := strings.CutPrefix(line, "Rss:"); ok && inside {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rss, "kB")), 10, 64)
			total += kb
		} else if bounds, _, _ := strings.Cut(line, " "); !strings.HasSuffix(bounds, ":") {
			// An area's header, "lo-hi perms offset ..."; the "Key: value"
			// lines that follow it end their first word with a colon.
			lo, hi, _ := strings.Cut(bounds, "-")
			a, _ := strconv.ParseUint(lo, 16, 64)
			b, _ := strconv.ParseUint(hi, 16, 64)
			inside = a >= start && b <= end
		}
	}
	return total << 10
}
