package cache

import (
	"bytes"
	"testing"
)

func newWC() *WriteCombiner { return NewWriteCombiner(64, 1<<20, 1<<20) }

func TestWCAddAndOverlay(t *testing.T) {
	w := newWC()
	ok, _ := w.Add(1, 100, []byte{1, 2, 3})
	if !ok {
		t.Fatal("Add refused disjoint write")
	}
	ok, _ = w.Add(2, 200, []byte{9})
	if !ok {
		t.Fatal("Add refused disjoint write")
	}
	buf := make([]byte, 16) // backing view of [96,112)
	w.OverlayRange(96, buf)
	want := make([]byte, 16)
	copy(want[4:], []byte{1, 2, 3})
	if !bytes.Equal(buf, want) {
		t.Fatalf("overlay %v want %v", buf, want)
	}
	if w.PendingCount() != 2 || w.PendingBytes() != 4 {
		t.Fatalf("pending %d/%d", w.PendingCount(), w.PendingBytes())
	}
}

func TestWCInPlaceMergePreservesOrder(t *testing.T) {
	w := newWC()
	w.Add(1, 100, []byte{1, 1, 1, 1})
	ok, _ := w.Add(1, 101, []byte{7, 7}) // covered, same node → merge
	if !ok {
		t.Fatal("covered same-node write should merge")
	}
	if w.PendingCount() != 1 {
		t.Fatalf("merge created a new entry: %d", w.PendingCount())
	}
	buf := make([]byte, 4)
	w.OverlayRange(100, buf)
	if !bytes.Equal(buf, []byte{1, 7, 7, 1}) {
		t.Fatalf("overlay %v", buf)
	}
}

func TestWCPartialOverlapConflicts(t *testing.T) {
	w := newWC()
	w.Add(1, 100, []byte{1, 1})
	if ok, _ := w.Add(1, 101, []byte{2, 2}); ok {
		t.Fatal("partial overlap absorbed")
	}
	if ok, _ := w.Add(2, 100, []byte{2, 2}); ok {
		t.Fatal("cross-node overlap absorbed")
	}
	// Still exactly one pending entry.
	if w.PendingCount() != 1 {
		t.Fatalf("pending %d", w.PendingCount())
	}
}

func TestWCCrossPageWrite(t *testing.T) {
	w := newWC()
	data := make([]byte, 10)
	for i := range data {
		data[i] = byte(i + 1)
	}
	w.Add(1, 60, data) // spans pages 0 and 1 (page size 64)
	buf := make([]byte, 128)
	w.OverlayRange(0, buf)
	if !bytes.Equal(buf[60:70], data) {
		t.Fatalf("overlay %v", buf[58:72])
	}
	if !w.PendingInRange(63, 1) || !w.PendingInRange(64, 1) {
		t.Fatal("PendingInRange missed cross-page write")
	}
	if w.PendingInRange(70, 4) {
		t.Fatal("PendingInRange false positive")
	}
}

func TestWCFlushLifecycle(t *testing.T) {
	w := newWC()
	w.Add(1, 10, []byte{1})
	w.Add(1, 20, []byte{2})
	batch := w.BeginFlush()
	if len(batch) != 2 {
		t.Fatalf("batch %d", len(batch))
	}
	if batch[0].Addr != 10 || batch[1].Addr != 20 {
		t.Fatal("batch out of arrival order")
	}
	// Flushing entries stay visible.
	if !w.PendingInRange(10, 1) {
		t.Fatal("flushing entry invisible to PendingInRange")
	}
	buf := make([]byte, 1)
	w.OverlayRange(20, buf)
	if buf[0] != 2 {
		t.Fatal("flushing entry invisible to overlay")
	}
	// A new write lands in pending while the flush is in flight, and a
	// covered rewrite of a *flushing* entry must NOT merge in place
	// (the flush batch is already being applied).
	if ok, _ := w.Add(1, 10, []byte{9}); ok {
		t.Fatal("merged into an in-flight flushing entry")
	}
	w.Add(1, 30, []byte{3})
	w.EndFlush()
	if w.PendingInRange(10, 1) {
		t.Fatal("retired entry still visible")
	}
	if !w.PendingInRange(30, 1) {
		t.Fatal("pending write added during flush lost")
	}
	if w.PendingCount() != 1 {
		t.Fatalf("pending %d", w.PendingCount())
	}
}

func TestWCCoalescedFlushMergesAbuttingRuns(t *testing.T) {
	w := newWC()
	w.Add(1, 100, []byte{1, 1})
	w.Add(1, 102, []byte{2, 2}) // abuts previous, same node → merges
	w.Add(1, 104, []byte{3})    // abuts again → extends the same run
	w.Add(2, 105, []byte{4})    // abuts but different node → new run
	w.Add(1, 200, []byte{5})    // gap → new run
	batch := w.BeginFlushCoalesced()
	if len(batch) != 3 {
		t.Fatalf("coalesced batch has %d runs, want 3: %+v", len(batch), batch)
	}
	if batch[0].From != 1 || batch[0].Addr != 100 || !bytes.Equal(batch[0].Data, []byte{1, 1, 2, 2, 3}) {
		t.Fatalf("merged run 0: %+v", batch[0])
	}
	if batch[1].From != 2 || batch[1].Addr != 105 || !bytes.Equal(batch[1].Data, []byte{4}) {
		t.Fatalf("cross-node run 1 merged: %+v", batch[1])
	}
	if batch[2].Addr != 200 || !bytes.Equal(batch[2].Data, []byte{5}) {
		t.Fatalf("gapped run 2 merged: %+v", batch[2])
	}
	// The originals stay on the flushing list for overlay visibility.
	buf := make([]byte, 6)
	w.OverlayRange(100, buf)
	if !bytes.Equal(buf, []byte{1, 1, 2, 2, 3, 4}) {
		t.Fatalf("overlay during coalesced flush: %v", buf)
	}
	w.EndFlush()
	if w.PendingCount() != 0 {
		t.Fatalf("pending %d after EndFlush", w.PendingCount())
	}
}

// TestWCCoalescedFlushDoesNotClobberArena is the regression for the
// copy-on-first-extension rule: merging a run by appending in place
// would grow the first entry's arena slice into its neighbour's bytes.
// The merged output and every unmerged entry must stay byte-exact.
func TestWCCoalescedFlushDoesNotClobberArena(t *testing.T) {
	w := newWC()
	// Arena-adjacent entries: added back to back, so their backing bytes
	// are contiguous in the same arena block.
	w.Add(1, 100, []byte{0xA, 0xA, 0xA})
	w.Add(1, 103, []byte{0xB, 0xB, 0xB})
	w.Add(1, 106, []byte{0xC, 0xC, 0xC})
	w.Add(1, 300, []byte{0xD, 0xD, 0xD}) // disjoint sentinel after the run
	batch := w.BeginFlushCoalesced()
	if len(batch) != 2 {
		t.Fatalf("coalesced batch has %d runs, want 2", len(batch))
	}
	want := []byte{0xA, 0xA, 0xA, 0xB, 0xB, 0xB, 0xC, 0xC, 0xC}
	if !bytes.Equal(batch[0].Data, want) {
		t.Fatalf("merged run %v, want %v (in-place append clobbered the arena)", batch[0].Data, want)
	}
	if !bytes.Equal(batch[1].Data, []byte{0xD, 0xD, 0xD}) {
		t.Fatalf("sentinel entry corrupted by the merge: %v", batch[1].Data)
	}
	// The arena originals behind the overlay are untouched too.
	buf := make([]byte, 9)
	w.OverlayRange(100, buf)
	if !bytes.Equal(buf, want) {
		t.Fatalf("overlay after coalesced flush: %v", buf)
	}
	w.EndFlush()
}

func TestWCSecondFlushIncludesNewPending(t *testing.T) {
	w := newWC()
	w.Add(1, 10, []byte{1})
	w.BeginFlush()
	w.Add(1, 30, []byte{3})
	w.EndFlush()
	batch := w.BeginFlush()
	if len(batch) != 1 || batch[0].Addr != 30 {
		t.Fatalf("second flush batch %v", batch)
	}
	w.EndFlush()
}

func TestWCDropRange(t *testing.T) {
	w := newWC()
	w.Add(1, 10, []byte{1, 1})
	w.Add(1, 100, []byte{2, 2})
	if n := w.DropRange(0, 64); n != 1 {
		t.Fatalf("dropped %d want 1", n)
	}
	if w.PendingInRange(10, 2) {
		t.Fatal("dropped entry still visible")
	}
	if !w.PendingInRange(100, 2) {
		t.Fatal("survivor lost")
	}
	if w.PendingBytes() != 2 {
		t.Fatalf("bytes %d", w.PendingBytes())
	}
}

func TestWCShouldFlushThresholds(t *testing.T) {
	w := NewWriteCombiner(64, 4, 1000)
	if _, fl := w.Add(1, 0, []byte{1, 2}); fl {
		t.Fatal("premature flush request")
	}
	if _, fl := w.Add(1, 100, []byte{1, 2, 3}); !fl {
		t.Fatal("byte threshold ignored")
	}
	w2 := NewWriteCombiner(64, 1<<20, 2)
	w2.Add(1, 0, []byte{1})
	if _, fl := w2.Add(1, 100, []byte{1}); !fl {
		t.Fatal("count threshold ignored")
	}
}
