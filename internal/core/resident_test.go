package core

import (
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/memnode"
)

// nodeOf reaches under the lender seam to server s's in-process node, for
// the tests that read what only that node reports (ResidentBytes).
func nodeOf(p *Pool, s addr.ServerID) *memnode.Node { return p.nodes[s].(local).Node }

// checkResidentWithinUse asserts the sizing contract CheckInvariants
// cannot afford to (it reads the kernel's accounting): a live server
// keeps real memory only under extents that are allocated. Everything a
// release, a move or a shrink vacated has gone back to the host. Where
// the platform cannot tell, ResidentBytes is 0 and this checks nothing.
func checkResidentWithinUse(t *testing.T, p *Pool) {
	t.Helper()
	for i, n := range p.nodes {
		s := addr.ServerID(i)
		if p.isDead(s) {
			continue
		}
		if res, use := nodeOf(p, s).ResidentBytes(), inUse(n); res > use {
			t.Errorf("server %d keeps %d KiB resident with %d KiB allocated", s, res>>10, use>>10)
		}
	}
}
