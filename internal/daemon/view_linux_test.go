package daemon

import (
	"errors"
	"syscall"
	"testing"
	"time"
)

// kernelPopulates reports whether the kernel knows MADV_POPULATE_WRITE
// (Linux 5.14), which a node's populator asks for.
func kernelPopulates(t *testing.T) bool {
	t.Helper()
	mem, err := syscall.Mmap(-1, 0, 4096, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	const madvPopulateWrite = 23
	return !errors.Is(syscall.Madvise(mem, madvPopulateWrite), syscall.EINVAL)
}

// TestPoolViewBufferResidentBeforeFirstWrite: a daemon's share of a buffer
// is one extent, so its node makes the extent's whole huge pages resident
// with no write, off the receive path of the tenant's first writes. Had
// the share been one extent per 256 KiB stripe, none would be: a node
// populates only whole huge pages.
func TestPoolViewBufferResidentBeforeFirstWrite(t *testing.T) {
	if !kernelPopulates(t) {
		t.Skip("the kernel does not know MADV_POPULATE_WRITE (before Linux 5.14)")
	}
	v, servers := loopbackView(t, 2, 32<<20, 256<<10)
	if _, err := v.Alloc(8 << 20); err != nil {
		t.Fatal(err)
	}
	// Each fresh daemon grants its 4 MiB share at offset 0: two whole
	// huge pages.
	const want = 4 << 20
	deadline := time.Now().Add(5 * time.Second)
	for i, s := range servers {
		for s.Stats().ResidentBytes < want {
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d: %d bytes resident 5 s after granting its share, want %d", i, s.Stats().ResidentBytes, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
