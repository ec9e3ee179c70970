//go:build !linux

package memnode

// reserve backs the node with a heap slice where the anonymous-mapping
// calls of backing_linux.go are not available (or, as darwin's
// MADV_DONTNEED, do not zero).
func (n *Node) reserve() error {
	n.mem = make([]byte, n.capacity)
	return nil
}

// release zeroes [from, to); the memory stays with the process.
func (n *Node) release(from, to int64) { clear(n.mem[from:to]) }

// populate is not available here: pages are supplied on first touch.
func (n *Node) populate(from, to int64) bool { return false }

// resident is not known here.
func (n *Node) resident() int64 { return 0 }
