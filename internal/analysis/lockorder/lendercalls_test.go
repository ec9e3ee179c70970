package lockorder

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestLenderCallsMatchDesign holds rule 1's declared exception and the
// table DESIGN.md "The lender seam" gives for it to the same entries, in
// the same order: the table is the list a reviewer reads.
func TestLenderCallsMatchDesign(t *testing.T) {
	doc, err := os.ReadFile("../../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const marker = "<!-- lockorder lenderCalls -->"
	_, table, ok := strings.Cut(string(doc), marker)
	if !ok {
		t.Fatalf("DESIGN.md has no %q table", marker)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimLeft(table, "\n"), "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue // the header and its rule
		}
		got = append(got, strings.Trim(strings.TrimSpace(cells[1]), "`")+" -> "+strings.Trim(strings.TrimSpace(cells[2]), "`"))
	}
	var want []string
	for _, e := range lenderCalls {
		want = append(want, e.holder+" -> "+e.callee)
	}
	if !slices.Equal(got, want) {
		t.Errorf("DESIGN.md tables the declared lender calls as\n  %s\nlockorder declares\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
