package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineZeroValueUsable(t *testing.T) {
	var e Engine
	ran := false
	e.After(10, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestEngineSchedulingInsideEvent(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.At(10, func() {
		times = append(times, e.Now())
		e.After(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v events, want 2", ran)
	}
	if e.Now() != 12 {
		t.Fatalf("Now() = %v, want 12", e.Now())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("ran %v events after Run, want 4", ran)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", e.Now())
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative After not clamped: ran=%v now=%v", ran, e.Now())
	}
}

// Property: events always execute in non-decreasing time order regardless of
// insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, d := range delays {
			e.At(Time(d), func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeServiceTime(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1e9) // 1 GB/s => 1 byte/ns
	var done Time
	p.Transfer(1000, func() { done = e.Now() })
	e.Run()
	if done != 1000 {
		t.Fatalf("transfer finished at %v, want 1000", done)
	}
}

func TestPipeFIFOQueueing(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1e9)
	var finishes []Time
	p.Transfer(100, func() { finishes = append(finishes, e.Now()) })
	p.Transfer(100, func() { finishes = append(finishes, e.Now()) })
	p.Transfer(100, func() { finishes = append(finishes, e.Now()) })
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
}

func TestPipeUtilization(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1e9)
	p.Transfer(500, func() {})
	e.Run()
	e.RunUntil(1000)
	u := p.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
	if p.BytesServed() != 500 {
		t.Fatalf("bytes served = %d, want 500", p.BytesServed())
	}
}

// Property: pipe throughput converges to its configured rate under
// saturation, independent of transfer size distribution.
func TestPipeThroughputProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		rate := 1e8 + rng.Float64()*1e10
		p := NewPipe(e, rate)
		total := 0
		for i := 0; i < 100; i++ {
			sz := 64 + rng.Intn(4096)
			total += sz
			p.Transfer(sz, func() {})
		}
		e.Run()
		got := float64(total) / e.Now().Sub(0).Seconds()
		if got < rate*0.9 || got > rate*1.1 {
			t.Fatalf("trial %d: throughput %.3g, want ~%.3g", trial, got, rate)
		}
	}
}
