package core

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/lmp-project/lmp/internal/alloc"
)

// residentMiB reads the process's resident set from /proc/self/statm.
func residentMiB(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no /proc/self/statm: %v", err)
	}
	pages, err := strconv.ParseInt(strings.Fields(string(b))[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * int64(os.Getpagesize()) >> 20
}

// TestSizingGivesMemoryBack: shrinking a server's shared region through
// compaction moves its data — the process does not grow by a second
// copy, and the vacated server keeps nothing — and releasing the buffer
// shrinks the process by about its size. 64MiB keeps the runtime's own
// noise under 5%.
func TestSizingGivesMemoryBack(t *testing.T) {
	const slices = 32 // 64 MiB
	cfg := Config{Placement: alloc.LocalityAware}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: slices * SliceSize, SharedBytes: slices * SliceSize})
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(slices*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC3}, SliceSize)
	for i := int64(0); i < slices; i++ {
		if err := b.WriteAt(0, payload, i*SliceSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.nodes[0].ResidentBytes(); got != slices*SliceSize {
		t.Fatalf("server 0 resident %d MiB after writing %d", got>>20, slices*SliceSize>>20)
	}
	full := residentMiB(t)

	if err := p.ShrinkShared(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.nodes[0].ResidentBytes(); got != 0 {
		t.Errorf("server 0 still holds %d MiB after shrinking to nothing", got>>20)
	}
	if grew := residentMiB(t) - full; grew > 8 {
		t.Errorf("process grew by %d MiB across the shrink: the vacated copy was not given back", grew)
	}
	got := make([]byte, SliceSize)
	if err := b.ReadAt(1, got, (slices-1)*SliceSize); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("data lost in the move: %v", err)
	}
	checkResidentWithinUse(t, p)

	moved := residentMiB(t)
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if fell := moved - residentMiB(t); fell < 56 {
		t.Errorf("process shrank by %d MiB after releasing 64 MiB, want >= 56", fell)
	}
	checkResidentWithinUse(t, p)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
