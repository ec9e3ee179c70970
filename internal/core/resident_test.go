package core

import (
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
)

// checkResidentWithinUse asserts the sizing contract CheckInvariants
// cannot afford to (it reads the kernel's accounting): a live server
// keeps real memory only under extents that are allocated. Everything a
// release, a move or a shrink vacated has gone back to the host. Where
// the platform cannot tell, ResidentBytes is 0 and this checks nothing.
func checkResidentWithinUse(t *testing.T, p *Pool) {
	t.Helper()
	for s, n := range p.nodes {
		if p.isDead(addr.ServerID(s)) {
			continue
		}
		if res, use := n.ResidentBytes(), p.nodes[s].InUse(); res > use {
			t.Errorf("server %d keeps %d KiB resident with %d KiB allocated", s, res>>10, use>>10)
		}
	}
}
