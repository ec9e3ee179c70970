package core

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
)

// lentMiB reads the process's resident set from /proc/self/statm, less
// the memory the Go runtime holds from the host (MemStats.Sys less what
// the heap has released). Lent memory lives outside the Go heap, and the
// heap is not what these tests measure: under -race, sync.Pool drops a
// random quarter of its Puts, so a shrink that moves 32 slices allocates
// the mover's 2 MiB scratch buffer afresh 6-11 times (12-22 MiB, against
// 2 MiB without -race), and the heap holds several of them, up to 9 MiB,
// until the collector returns them.
func lentMiB(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no /proc/self/statm: %v", err)
	}
	pages, err := strconv.ParseInt(strings.Fields(string(b))[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (pages*int64(os.Getpagesize()) - int64(ms.Sys-ms.HeapReleased)) >> 20
}

// settledLentMiB is lentMiB once it has stopped moving: three readings
// 20 ms apart that agree, or whatever it reads after two seconds. A
// reading taken as the base of a window waits for memory the test does
// not own — the queued huge pages a populator of an earlier test's node
// is still faulting in — instead of counting it against the window.
func settledLentMiB(t *testing.T) int64 {
	t.Helper()
	last, same := lentMiB(t), 0
	for deadline := time.Now().Add(2 * time.Second); same < 2 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		cur := lentMiB(t)
		if cur == last {
			same++
		} else {
			last, same = cur, 0
		}
	}
	return last
}

// TestSizingGivesMemoryBack: shrinking a server's shared region through
// compaction moves its data — the process does not grow by a second
// copy, and the vacated range keeps nothing — and releasing the buffer
// shrinks the process by about its size. Both are read outside the Go
// runtime's own memory (lentMiB); what noise is left — the race
// detector's shadow, up to ~4 MiB — stays well under the 8 MiB allowed
// and the 64 MiB a second copy would add. Two deployments: a logical
// pool, whose server 0 lends nothing afterwards (the data leaves for its
// peers), and the physical baseline, whose device is the only lender
// (the data packs downward).
func TestSizingGivesMemoryBack(t *testing.T) {
	const slices = 32 // 64 MiB
	alloc64 := func(t *testing.T, p *Pool) *Buffer {
		t.Helper()
		b, err := p.Alloc(slices*SliceSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		build func() (*Pool, error)
		// place allocates the 64 MiB buffer and names the shrink that
		// must move it: which server's region, and to what size.
		place func(t *testing.T, p *Pool) (b *Buffer, srv addr.ServerID, target int64)
	}{
		{"logical", func() (*Pool, error) {
			cfg := Config{Placement: alloc.LocalityAware}
			for i := 0; i < 4; i++ {
				cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: slices * SliceSize, SharedBytes: slices * SliceSize})
			}
			return New(cfg)
		}, func(t *testing.T, p *Pool) (*Buffer, addr.ServerID, int64) {
			return alloc64(t, p), 0, 0 // alone on server 0, which stops lending
		}},
		{"physical", func() (*Pool, error) {
			return NewPhysical(PhysicalConfig{Servers: 2, PoolBytes: 2 * slices * SliceSize})
		}, func(t *testing.T, p *Pool) (*Buffer, addr.ServerID, int64) {
			// In the device's upper half, above a tenant that then leaves.
			below, b := alloc64(t, p), alloc64(t, p)
			if err := below.Release(); err != nil {
				t.Fatal(err)
			}
			return b, addr.ServerID(p.Servers() - 1), slices * SliceSize
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			b, srv, target := tc.place(t, p)
			payload := bytes.Repeat([]byte{0xC3}, SliceSize)
			for i := int64(0); i < slices; i++ {
				if err := b.WriteAt(0, payload, i*SliceSize); err != nil {
					t.Fatal(err)
				}
			}
			if got := nodeOf(p, srv).ResidentBytes(); got != slices*SliceSize {
				t.Fatalf("server %d resident %d MiB after writing %d", srv, got>>20, slices*SliceSize>>20)
			}
			full := settledLentMiB(t)

			if err := p.ShrinkShared(srv, target); err != nil {
				t.Fatal(err)
			}
			if got := nodeOf(p, srv).ResidentBytes(); got != target {
				t.Errorf("server %d holds %d MiB after shrinking to %d", srv, got>>20, target>>20)
			}
			if grew := lentMiB(t) - full; grew > 8 {
				t.Errorf("process grew by %d MiB across the shrink: the vacated copy was not given back", grew)
			}
			got := make([]byte, SliceSize)
			if err := b.ReadAt(1, got, (slices-1)*SliceSize); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("data lost in the move: %v", err)
			}
			checkResidentWithinUse(t, p)

			moved := settledLentMiB(t)
			if err := b.Release(); err != nil {
				t.Fatal(err)
			}
			if fell := moved - lentMiB(t); fell < 56 {
				t.Errorf("process shrank by %d MiB after releasing 64 MiB, want >= 56", fell)
			}
			checkResidentWithinUse(t, p)
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
