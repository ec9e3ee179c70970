package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
)

// TestTranslateDuringMigration reads a live, mapped address through
// Translate and OwnerOf while its slice ping-pongs between two servers.
// Every call must succeed, and every Location must be a (server, offset)
// pair the slice actually held — never one home's server with the other's
// offset. The mover side records the pairs.
func TestTranslateDuringMigration(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := b.firstSlice()
	const inSlice = 12345
	la := b.Addr() + inSlice

	held := map[addr.Location]bool{}
	recordHome := func() {
		loc, _ := p.homeOf(s)
		held[loc] = true
	}
	recordHome()

	var stop atomic.Bool
	var wg sync.WaitGroup
	var failures atomic.Int64
	seen := make([]map[addr.Location]bool, 4)
	owners := make([]map[addr.ServerID]bool, 4)
	for g := range seen {
		seen[g] = map[addr.Location]bool{}
		owners[g] = map[addr.ServerID]bool{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				loc, err := p.Translate(la)
				if err != nil {
					if failures.Add(1) == 1 {
						t.Errorf("Translate of a live address: %v", err)
					}
					continue
				}
				loc.Offset -= inSlice
				seen[g][loc] = true
				owner, err := p.OwnerOf(la)
				if err != nil {
					if failures.Add(1) == 1 {
						t.Errorf("OwnerOf of a live address: %v", err)
					}
					continue
				}
				owners[g][owner] = true
			}
		}(g)
	}
	for i := 0; i < 400; i++ {
		if err := p.MigrateSlice(s, addr.ServerID((i+1)%2)); err != nil {
			t.Errorf("move %d: %v", i, err)
			break
		}
		recordHome()
	}
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Errorf("%d lookups of a live, mapped address failed during migration", n)
	}
	for g := range seen {
		for loc := range seen[g] {
			if !held[loc] {
				t.Errorf("reader %d translated to %+v, a location the slice never held", g, loc)
			}
		}
		for owner := range owners[g] {
			if owner != 0 && owner != 1 {
				t.Errorf("reader %d saw owner %d", g, owner)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// regionUse snapshots every region's bytes in use.
func regionUse(p *Pool) []int64 {
	use := make([]int64, len(p.nodes))
	for i, r := range p.nodes {
		use[i] = r.InUse()
	}
	return use
}

// failedAllocLeftNothing is what a refused allocation owes the pool:
// every region holds exactly what it held before the call. The chaos
// suites call it on their out-of-space step.
func failedAllocLeftNothing(p *Pool, before []int64) error {
	var errs []error
	for i, was := range before {
		if now := p.nodes[i].InUse(); now != was {
			errs = append(errs, fmt.Errorf("server %d: %d slices in use before the failed alloc, %d after",
				i, was/SliceSize, now/SliceSize))
		}
	}
	return errors.Join(errs...)
}

// TestFailedProtectedAllocLeavesNothing runs AllocProtected out of space
// at the first, a middle and the last protection block of a three-slice
// buffer. The pool is four servers of four slices; a filler buffer that
// owns extent (0, 0) — the location an unfilled replica slot names —
// leaves exactly the primaries plus failAt protection blocks free.
func TestFailedProtectedAllocLeavesNothing(t *testing.T) {
	const (
		servers    = 4
		perServer  = 4
		bufSlices  = 3
		total      = servers * perServer
		patternLen = 9000
	)
	cases := []struct {
		name   string
		prot   failure.Policy
		blocks int // protection blocks of a bufSlices buffer
	}{
		{"replicate-2", failure.Policy{Scheme: failure.Replicate, Copies: 2}, bufSlices},
		{"replicate-3", failure.Policy{Scheme: failure.Replicate, Copies: 3}, 2 * bufSlices},
		{"ec-2-1", failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}, 2},
		{"ec-2-2", failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 2}, 4},
	}
	for _, tc := range cases {
		failPoints := []int{0, tc.blocks / 2, tc.blocks - 1}
		if tc.blocks == 2 {
			failPoints = []int{0, 1} // no middle
		}
		for _, failAt := range failPoints {
			t.Run(fmt.Sprintf("%s/block-%d", tc.name, failAt), func(t *testing.T) {
				cfg := Config{Placement: alloc.LocalityAware}
				for i := 0; i < servers; i++ {
					cfg.Servers = append(cfg.Servers, ServerConfig{
						Capacity: perServer * SliceSize, SharedBytes: perServer * SliceSize,
					})
				}
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				filler, err := p.Alloc(int64(total-bufSlices-failAt)*SliceSize, 0)
				if err != nil {
					t.Fatal(err)
				}
				if loc, err := p.Translate(filler.Addr()); err != nil || loc != (addr.Location{}) {
					t.Fatalf("filler at %+v, %v; want extent (0, 0)", loc, err)
				}
				pattern := fillPattern(patternLen, 7)
				if err := p.Write(1, filler.Addr(), pattern); err != nil {
					t.Fatal(err)
				}

				before := regionUse(p)
				p.mu.Lock()
				wouldBe := addr.Range{Start: addr.SliceBase(p.nextSlice), Size: bufSlices * SliceSize}
				p.mu.Unlock()
				if b, err := p.AllocProtected(bufSlices*SliceSize, 1, tc.prot); !errors.Is(err, alloc.ErrNoSpace) {
					t.Fatalf("AllocProtected = %v, %v; want ErrNoSpace", b, err)
				}

				if err := failedAllocLeftNothing(p, before); err != nil {
					t.Error(err)
				}
				if err := p.CheckInvariants(); err != nil {
					t.Errorf("invariants: %v", err)
				}
				for la := wouldBe.Start; la < wouldBe.End(); la += SliceSize {
					if owner, err := p.OwnerOf(la); !errors.Is(err, addr.ErrUnmapped) {
						t.Errorf("OwnerOf(%#x) of the buffer that was never created = %d, %v", uint64(la), owner, err)
					}
					if loc, err := p.Translate(la + 99); !errors.Is(err, addr.ErrUnmapped) {
						t.Errorf("Translate(%#x) of the buffer that was never created = %+v, %v", uint64(la+99), loc, err)
					}
				}
				got := make([]byte, patternLen)
				if err := p.Read(2, filler.Addr(), got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, pattern) {
					t.Error("the buffer owning extent (0, 0) lost its bytes to the failed allocation")
				}
				again, err := p.Alloc(int64(bufSlices+failAt)*SliceSize, 1)
				if err != nil {
					t.Fatalf("allocating the freed %d slices: %v", bufSlices+failAt, err)
				}
				if err := again.Release(); err != nil {
					t.Fatal(err)
				}
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("invariants after reuse: %v", err)
				}
			})
		}
	}
}
