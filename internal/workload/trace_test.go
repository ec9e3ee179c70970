package workload

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestTraceRoundTrip(t *testing.T) {
	g, err := NewZipf(1<<20, 1<<22, 64, 500, 1.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	orig := Record(g)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Accesses) != len(orig.Accesses) {
		t.Fatalf("count %d != %d", len(got.Accesses), len(orig.Accesses))
	}
	for i := range got.Accesses {
		if got.Accesses[i] != orig.Accesses[i] {
			t.Fatalf("access %d: %+v != %+v", i, got.Accesses[i], orig.Accesses[i])
		}
	}
}

func TestTraceWithWritesRoundTrip(t *testing.T) {
	g, err := NewUniform(0, 1<<20, 128, 300, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	orig := Record(g)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for i := range got.Accesses {
		if got.Accesses[i] != orig.Accesses[i] {
			t.Fatalf("access %d mismatch", i)
		}
		if got.Accesses[i].Write {
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("write flags lost")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	empty := &Trace{}
	if _, err := empty.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Accesses) != 0 {
		t.Fatalf("accesses = %d", len(got.Accesses))
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a trace at all"),
		{'L', 'M', 'P', 'T'}, // truncated header
		{'L', 'M', 'P', 'T', 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0}, // bad version
	}
	for i, c := range cases {
		if _, err := ReadTrace(bytes.NewReader(c)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
	// Truncated body.
	var buf bytes.Buffer
	g, _ := NewSequential(0, 1024, 64)
	if _, err := Record(g).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadTrace(bytes.NewReader(trunc)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("truncated body: %v", err)
	}
}

// Property: arbitrary access sequences survive the binary round trip.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(offs []int32, sizes []uint16) bool {
		n := len(offs)
		if len(sizes) < n {
			n = len(sizes)
		}
		tr := &Trace{}
		for i := 0; i < n; i++ {
			tr.Accesses = append(tr.Accesses, Access{
				Offset: int64(offs[i]),
				Size:   int(sizes[i]),
				Write:  offs[i]%2 == 0,
			})
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(got.Accesses) != len(tr.Accesses) {
			return false
		}
		for i := range got.Accesses {
			if got.Accesses[i] != tr.Accesses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
