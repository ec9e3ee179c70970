package hashtab

// List is a set of uint64 keys in recency order — oldest first — with a
// value of type V stored beside each key: O(1) lookup by key, and O(1)
// push, remove, move-to-newest and oldest-member through an intrusive
// doubly linked list. It is the page cache's ghost list (a bounded FIFO
// that a re-admission removes from in the middle) and the coherence
// directory's snoop filter (exact LRU whose victim is Oldest).
//
// Members are addressed by int32 handles that stay valid until the
// member is removed; removed members' nodes are recycled, newest first.
// Init must be called before use. Storage grows with the members, and a
// list that never holds more than the capacity Init was given stops
// growing at exactly that capacity's size, after which it never
// allocates again.
//
// Not safe for concurrent use.
type List[V any] struct {
	index Table
	nodes []node[V]
	limit int   // the capacity growth stops at
	head  int32 // oldest member, -1 when empty
	tail  int32 // newest member, -1 when empty
	free  int32 // recycled nodes, chained through next; -1 when none
}

type node[V any] struct {
	key        uint64
	prev, next int32 // toward older, toward newer; -1 at the ends
	val        V
}

// Init empties the list for at most capacity members. It allocates
// nothing: storage comes as members do.
func (l *List[V]) Init(capacity int) {
	l.Clear()
	l.limit = capacity
}

// Len reports the number of members.
func (l *List[V]) Len() int { return l.index.Len() }

// Get returns the handle of key's member.
//
//lmp:hotpath
func (l *List[V]) Get(key uint64) (int32, bool) { return l.index.Get(key) }

// Key returns the key of member h.
func (l *List[V]) Key(h int32) uint64 { return l.nodes[h].key }

// At returns member h's value. The pointer is valid until the next Push.
//
//lmp:hotpath
func (l *List[V]) At(h int32) *V { return &l.nodes[h].val }

// Oldest returns the handle of the oldest member, -1 when empty.
func (l *List[V]) Oldest() int32 { return l.head }

// Newer returns the member after h in oldest-first order, -1 after the
// newest. Removing h itself during a walk is fine if Newer was read first.
func (l *List[V]) Newer(h int32) int32 { return l.nodes[h].next }

// Push adds key, which must not be a member, as the newest and returns
// its handle. The member's value is whatever the recycled node last
// held (the zero V on a fresh node): callers that keep reusable storage
// in V reset it themselves.
//
//lmp:hotpath
func (l *List[V]) Push(key uint64) int32 {
	h := l.free
	if h >= 0 {
		l.free = l.nodes[h].next
	} else {
		if len(l.nodes) == cap(l.nodes) {
			l.growNodes()
		}
		h = int32(len(l.nodes))
		l.nodes = l.nodes[:h+1]
	}
	l.nodes[h].key = key
	l.index.Insert(key, h)
	l.linkNewest(h)
	return h
}

// growNodes makes room for one more node: it doubles the node array, but
// not past the capacity Init was given until that capacity is full.
// Amortised, and never reached again once the list has held its largest
// population.
//
//lmp:coldpath
func (l *List[V]) growNodes() {
	c := cap(l.nodes)
	n := max(2*c, 8)
	if c < l.limit {
		n = min(n, l.limit)
	}
	nodes := make([]node[V], len(l.nodes), n)
	copy(nodes, l.nodes)
	l.nodes = nodes
}

func (l *List[V]) linkNewest(h int32) {
	n := &l.nodes[h]
	n.prev, n.next = l.tail, -1
	if l.tail >= 0 {
		l.nodes[l.tail].next = h
	} else {
		l.head = h
	}
	l.tail = h
}

func (l *List[V]) unlink(h int32) {
	n := &l.nodes[h]
	if n.prev >= 0 {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next >= 0 {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
}

// Touch makes member h the newest.
//
//lmp:hotpath
func (l *List[V]) Touch(h int32) {
	if l.tail == h {
		return
	}
	l.unlink(h)
	l.linkNewest(h)
}

// Remove deletes member h and recycles its node.
//
//lmp:hotpath
func (l *List[V]) Remove(h int32) {
	l.unlink(h)
	l.index.Delete(l.nodes[h].key)
	l.nodes[h].next = l.free
	l.free = h
}

// Clear removes every member and keeps the list's storage (values
// included, for the same reuse Push describes).
func (l *List[V]) Clear() {
	l.index.Clear()
	l.nodes = l.nodes[:0]
	l.head, l.tail, l.free = -1, -1, -1
}
