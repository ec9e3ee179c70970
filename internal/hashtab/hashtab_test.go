package hashtab

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTableAgainstMapOracle drives random insert/delete/lookup at 50%
// load — where probe runs are longest and wrap around the end of the
// slot array — against a Go map. Backward-shift deletion's classic bug
// is a run cut in two by a shift across the wrap, which shows up as a
// present key Get cannot find. The table starts empty and must stop
// growing at the smallest power of two holding twice its population.
func TestTableAgainstMapOracle(t *testing.T) {
	for _, size := range []int{4, 16, 256} {
		var tab Table
		slots := 8
		for slots < 2*size {
			slots *= 2
		}
		oracle := map[uint64]int32{}
		rng := rand.New(rand.NewSource(int64(size)))
		// A small key space makes hits, misses and re-inserts all common.
		keySpace := uint64(3 * size)
		for op := 0; op < 200_000; op++ {
			key := rng.Uint64() % keySpace
			if op%7 == 0 {
				key <<= 4 // pages of one cache shard: low bits equal
			}
			want, present := oracle[key]
			if got, ok := tab.Get(key); ok != present || (ok && got != want) {
				t.Fatalf("size %d op %d: Get(%d) = %d,%v want %d,%v", size, op, key, got, ok, want, present)
			}
			switch {
			case present && rng.Intn(2) == 0:
				if got, ok := tab.Delete(key); !ok || got != want {
					t.Fatalf("size %d op %d: Delete(%d) = %d,%v want %d", size, op, key, got, ok, want)
				}
				delete(oracle, key)
			case !present && len(oracle) < size:
				v := int32(rng.Intn(1 << 20))
				tab.Insert(key, v)
				oracle[key] = v
			case !present:
				if _, ok := tab.Delete(key); ok {
					t.Fatalf("size %d op %d: Delete of absent key %d succeeded", size, op, key)
				}
			}
			if tab.Len() != len(oracle) {
				t.Fatalf("size %d op %d: Len %d want %d", size, op, tab.Len(), len(oracle))
			}
		}
		if len(tab.slots) != slots {
			t.Fatalf("size %d: table grew to %d slots, its population needs %d", size, len(tab.slots), slots)
		}
		for key, want := range oracle {
			if got, ok := tab.Get(key); !ok || got != want {
				t.Fatalf("size %d: final Get(%d) = %d,%v want %d", size, key, got, ok, want)
			}
		}
	}
}

// TestTableShiftAcrossWrap pins the wrapped case directly: a run that
// starts in the last slots and continues at slot 0 must stay reachable
// whichever of its members is deleted.
func TestTableShiftAcrossWrap(t *testing.T) {
	var tab Table
	tab.grow() // 8 slots
	// Collect keys whose home is one of the last two slots.
	var keys []uint64
	for k := uint64(1); len(keys) < 4; k++ {
		if h := tab.home(k); h >= len(tab.slots)-2 {
			keys = append(keys, k)
		}
	}
	for del := range keys {
		tab.Clear()
		for i, k := range keys {
			tab.Insert(k, int32(i))
		}
		if got, ok := tab.Delete(keys[del]); !ok || got != int32(del) {
			t.Fatalf("Delete(%d) = %d,%v want %d", keys[del], got, ok, del)
		}
		for i, k := range keys {
			got, ok := tab.Get(k)
			if i == del {
				if ok {
					t.Fatalf("deleted key %d still found", k)
				}
				continue
			}
			if !ok || got != int32(i) {
				t.Fatalf("after deleting %d (home %d): key %d (home %d) unreachable", keys[del], tab.home(keys[del]), k, tab.home(k))
			}
		}
	}
}

// TestListOrder checks the recency order under push, touch and remove in
// the middle against a slice oracle, plus node recycling: the node array
// grows no further than the capacity Init was given, even when that is
// not a power of two.
func TestListOrder(t *testing.T) {
	const capacity = 24
	var l List[int]
	l.Init(capacity)
	var oracle []uint64 // oldest first
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 100_000; op++ {
		key := uint64(rng.Intn(3 * capacity))
		h, ok := l.Get(key)
		if i := slices.Index(oracle, key); (i >= 0) != ok {
			t.Fatalf("op %d: Get(%d) = %v, oracle index %d", op, key, ok, i)
		}
		switch r := rng.Intn(3); {
		case ok && r == 0:
			l.Touch(h)
			oracle = append(slices.DeleteFunc(oracle, func(k uint64) bool { return k == key }), key)
		case ok && r == 1:
			if *l.At(h) != int(key)+1 {
				t.Fatalf("op %d: value of %d is %d", op, key, *l.At(h))
			}
			l.Remove(h)
			oracle = slices.DeleteFunc(oracle, func(k uint64) bool { return k == key })
		case !ok:
			if l.Len() == capacity {
				old := l.Oldest()
				if l.Key(old) != oracle[0] {
					t.Fatalf("op %d: oldest is %d want %d", op, l.Key(old), oracle[0])
				}
				l.Remove(old)
				oracle = oracle[1:]
			}
			*l.At(l.Push(key)) = int(key) + 1
			oracle = append(oracle, key)
		}
		var got []uint64
		for h := l.Oldest(); h >= 0; h = l.Newer(h) {
			got = append(got, l.Key(h))
		}
		if !slices.Equal(got, oracle) {
			t.Fatalf("op %d: order %v want %v", op, got, oracle)
		}
	}
	if cap(l.nodes) != capacity || len(l.index.slots) != 64 {
		t.Fatalf("storage grew to %d nodes and %d index slots, want %d and 64", cap(l.nodes), len(l.index.slots), capacity)
	}
	l.Clear()
	if l.Len() != 0 || l.Oldest() != -1 {
		t.Fatal("Clear left members")
	}
}

// TestSteadyStateAllocFree is the point of the package: churn at a
// stable population — lookups, touches, evictions and admissions —
// allocates nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	const capacity = 256
	var l List[int]
	l.Init(capacity)
	next := uint64(0)
	for ; next < capacity; next++ {
		l.Push(next)
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			if h, ok := l.Get(next - capacity/2); ok {
				*l.At(h)++
				l.Touch(h)
			}
			l.Remove(l.Oldest())
			l.Push(next)
			next++
		}
	}); n != 0 {
		t.Errorf("list churn allocates %.0f per 1000 ops, want 0", n)
	}
}
