// Package hashtab holds the two index structures the cached data path is
// built on: Table, an open-addressed uint64 → int32 hash index, and
// List, a keyed recency list over it. Both keep their members in flat
// slices addressed by int32 handles, so the steady state — insert one,
// delete one, at a stable population — touches no allocator: a Go map
// under that churn rehashes (and so reallocates) every O(size)
// operations, which is exactly the per-op garbage the page cache, the
// write combiner and the coherence directory must not produce. Storage
// grows with the population and stops at the size its high-water mark
// needs: an index nobody fills costs nothing.
package hashtab

// slot is one table position. ref is the stored value plus one, so the
// zero slot is empty.
type slot struct {
	key uint64
	ref uint32
}

// Table is a linear-probe hash index from uint64 keys to int32 values
// (indices into a slice the caller owns). Deletion shifts the rest of
// the probe run back over the hole instead of leaving a tombstone: a
// lookup never walks dead slots, and the table never needs rebuilding.
// Load is kept at or below one half. The zero Table is empty and grows
// on demand, by doubling, to the smallest power of two (at least 8) that
// holds twice its largest population; from then on it never allocates.
//
// Not safe for concurrent use.
type Table struct {
	slots []slot
	shift uint // 64 - log2(len(slots)): the hash's top bits pick the home slot
	n     int
}

func (t *Table) resize(size int) {
	t.slots = make([]slot, size)
	t.n = 0
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// home is the slot a key's probe run starts at: Fibonacci hashing, top
// bits, so keys that share their low bits (pages of one cache shard)
// still spread over the whole table.
func (t *Table) home(key uint64) int { return int(key * 0x9e3779b97f4a7c15 >> t.shift) }

// Len reports the number of entries.
func (t *Table) Len() int { return t.n }

// Get returns the value stored under key.
//
//lmp:hotpath
func (t *Table) Get(key uint64) (int32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.key == key {
			return int32(s.ref - 1), true
		}
	}
}

// Insert adds key with value v >= 0. The key must not be present.
//
//lmp:hotpath
func (t *Table) Insert(key uint64, v int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = slot{key: key, ref: uint32(v) + 1}
	t.n++
}

// grow doubles the table. Amortised, and never reached again once the
// table has held its largest population.
//
//lmp:coldpath
func (t *Table) grow() {
	old := t.slots
	t.resize(max(8, 2*len(old)))
	for _, s := range old {
		if s.ref != 0 {
			t.Insert(s.key, int32(s.ref-1))
		}
	}
}

// Delete removes key and returns the value it had.
//
//lmp:hotpath
func (t *Table) Delete(key uint64) (int32, bool) {
	slots := t.slots
	if len(slots) == 0 {
		return 0, false
	}
	mask := len(slots) - 1
	i := t.home(key)
	for ; slots[i].ref == 0 || slots[i].key != key; i = (i + 1) & mask {
		if slots[i].ref == 0 {
			return 0, false
		}
	}
	v := int32(slots[i].ref - 1)
	// Backward shift: walk the rest of the run; an entry whose home is at
	// or before the hole (cyclically) would become unreachable behind an
	// empty slot, so it moves into the hole and leaves a new one behind.
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		next := slots[j]
		if next.ref == 0 {
			break
		}
		if (j-t.home(next.key))&mask >= (j-i)&mask {
			slots[i] = next
			i = j
		}
	}
	slots[i] = slot{}
	t.n--
	return v, true
}

// Clear removes every entry and keeps the table's size.
func (t *Table) Clear() {
	clear(t.slots)
	t.n = 0
}
