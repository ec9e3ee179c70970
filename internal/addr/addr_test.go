package addr

import "testing"

func TestSliceArithmetic(t *testing.T) {
	if SliceOf(0) != 0 || SliceOf(SliceSize-1) != 0 || SliceOf(SliceSize) != 1 {
		t.Fatal("SliceOf boundaries wrong")
	}
	if SliceBase(3) != Logical(3*SliceSize) {
		t.Fatal("SliceBase wrong")
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{Start: 100, Size: 50}
	if r.End() != 150 {
		t.Fatal("End wrong")
	}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Fatal("Contains wrong")
	}
	if !r.Overlaps(Range{Start: 149, Size: 10}) || r.Overlaps(Range{Start: 150, Size: 10}) {
		t.Fatal("Overlaps wrong")
	}
}
