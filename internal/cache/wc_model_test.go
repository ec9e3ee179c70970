package cache

import (
	"bytes"
	"math/rand"
	"testing"
)

// The combiner recycles everything it hands out — entries, two byte
// arenas, the page index, the flush views and the merge buffer — so the
// bug to fear is aliasing: bytes still owned by generation n being
// overwritten while generation n+1 fills. driveWC runs a program of
// Add/OverlayRange/PendingInRange/DropRange/BeginFlush*/EndFlush calls
// against a flat model and checks, at every step, that reads compose to
// the model's bytes and, at every EndFlush, that the batch handed out by
// the matching Begin is byte-for-byte what it was when handed out.

const (
	wcModelSpace = 1024 // bytes of address space
	wcModelPage  = 64
)

type wcModelEntry struct {
	from     int
	lo, hi   uint64
	flushing bool
}

type wcModelRun struct {
	p    Pending
	snap []byte
}

// driveWC interprets prog (five bytes per step) and returns how many
// flush generations it completed.
func driveWC(t testing.TB, prog []byte) (generations int) {
	w := NewWriteCombiner(wcModelPage, 1<<20, 1<<20)
	back := make([]byte, wcModelSpace) // what flushes have applied
	view := make([]byte, wcModelSpace) // what every read must see
	var ents []wcModelEntry
	var inflight []wcModelRun
	flushing := false
	fill := byte(0)

	overlapping := func(lo, hi uint64) (idx []int) {
		for i, e := range ents {
			if overlaps(lo, hi, e.lo, e.hi) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	begin := func(coalesce bool) {
		var batch []Pending
		if coalesce {
			batch = w.BeginFlushCoalesced()
		} else {
			batch = w.BeginFlush()
		}
		want := 0
		for i := range ents {
			ents[i].flushing = true
			want += int(ents[i].hi - ents[i].lo)
		}
		got := 0
		inflight = inflight[:0]
		for _, p := range batch {
			if !bytes.Equal(p.Data, view[p.Addr:p.Addr+uint64(len(p.Data))]) {
				t.Fatalf("flush run at %d+%d from %d does not carry the accepted bytes", p.Addr, len(p.Data), p.From)
			}
			for _, i := range overlapping(p.Addr, p.Addr+uint64(len(p.Data))) {
				if e := ents[i]; e.from != p.From || e.lo < p.Addr || e.hi > p.Addr+uint64(len(p.Data)) {
					t.Fatalf("flush run %d+%d from %d cuts across entry %+v", p.Addr, len(p.Data), p.From, e)
				}
			}
			got += len(p.Data)
			inflight = append(inflight, wcModelRun{p, bytes.Clone(p.Data)})
		}
		if got != want {
			t.Fatalf("flush batch carries %d bytes, the model buffered %d", got, want)
		}
		flushing = true
	}
	end := func() {
		// Generation n's bytes must have survived everything that was
		// added, merged, dropped and overlaid since its BeginFlush.
		for _, r := range inflight {
			if !bytes.Equal(r.p.Data, r.snap) {
				t.Fatalf("flush run at %d+%d changed between BeginFlush and EndFlush: recycled storage aliases it", r.p.Addr, len(r.snap))
			}
			copy(back[r.p.Addr:], r.snap)
		}
		w.EndFlush()
		kept := ents[:0]
		for _, e := range ents {
			if !e.flushing {
				kept = append(kept, e)
			}
		}
		ents = kept
		inflight = inflight[:0]
		flushing = false
		generations++
	}

	for ; len(prog) >= 5; prog = prog[5:] {
		op, from := prog[0]%16, int(prog[1]%3)
		a := (uint64(prog[2])<<8 | uint64(prog[3])) % wcModelSpace
		n := min(uint64(prog[4])%100+1, wcModelSpace-a)
		switch {
		case op < 8: // Add
			fill++
			data := bytes.Repeat([]byte{fill}, int(n))
			hit := overlapping(a, a+n)
			wantOK := len(hit) == 0
			if len(hit) == 1 {
				e := ents[hit[0]]
				wantOK = e.from == from && e.lo <= a && a+n <= e.hi && !e.flushing
			}
			ok, _ := w.Add(from, a, data)
			if ok != wantOK {
				t.Fatalf("Add(%d, %d+%d) = %v, model says %v (overlapping %v)", from, a, n, ok, wantOK, hit)
			}
			if ok {
				copy(view[a:], data)
				if len(hit) == 0 {
					ents = append(ents, wcModelEntry{from: from, lo: a, hi: a + n})
				}
			}
		case op < 11: // OverlayRange over a longer window
			n = min(4*n, wcModelSpace-a)
			buf := bytes.Clone(back[a : a+n])
			w.OverlayRange(a, buf)
			if !bytes.Equal(buf, view[a:a+n]) {
				t.Fatalf("OverlayRange(%d+%d) does not compose to the accepted bytes", a, n)
			}
		case op < 12: // PendingInRange
			if got, want := w.PendingInRange(a, int(n)), len(overlapping(a, a+n)) > 0; got != want {
				t.Fatalf("PendingInRange(%d+%d) = %v, model says %v", a, n, got, want)
			}
		case op < 13: // DropRange
			hi := min(a+4*n, wcModelSpace)
			want := 0
			kept := ents[:0]
			for _, e := range ents {
				if !e.flushing && e.lo >= a && e.hi <= hi {
					want++
					copy(view[e.lo:e.hi], back[e.lo:e.hi])
					continue
				}
				kept = append(kept, e)
			}
			ents = kept
			if got := w.DropRange(a, hi); got != want {
				t.Fatalf("DropRange(%d,%d) dropped %d, model says %d", a, hi, got, want)
			}
		default: // flush step: begin if idle, end if in flight
			if flushing {
				end()
			} else {
				begin(op&1 == 0)
			}
		}
		if got, want := w.live.Load(), int64(len(ents)); got != want {
			t.Fatalf("live = %d, model holds %d entries", got, want)
		}
	}
	// Drain: nothing accepted may be lost.
	if flushing {
		end()
	}
	begin(true)
	end()
	if !bytes.Equal(back, view) {
		t.Fatal("after the final flush backing differs from the accepted bytes")
	}
	if w.PendingCount() != 0 || w.PendingBytes() != 0 || w.live.Load() != 0 {
		t.Fatalf("drained combiner still holds %d writes, %d bytes, %d live", w.PendingCount(), w.PendingBytes(), w.live.Load())
	}
	return generations
}

func TestWCModelSeeded(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		prog := make([]byte, 5*4000)
		rand.New(rand.NewSource(seed)).Read(prog)
		if g := driveWC(t, prog); g < 4 {
			t.Fatalf("seed %d completed %d flush generations, want at least 4", seed, g)
		}
	}
}

func FuzzWriteCombinerModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		prog := make([]byte, 5*200)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	// Two abutting writes, begin, a third abutting the flushing run, end.
	f.Add([]byte{0, 1, 0, 100, 9, 0, 1, 0, 110, 9, 14, 0, 0, 0, 0, 0, 1, 0, 120, 9, 9, 0, 0, 90, 60, 15, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) { driveWC(t, prog) })
}
