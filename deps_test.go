package lmp_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestRuntimeDepsExcludeModel holds the line between the runtime and the
// paper's model: neither this package nor internal/core may link the
// simulator packages behind internal/model, which only the model and the
// programs that print its numbers (cmd/lmpbench, examples/vectorsum) use.
func TestRuntimeDepsExcludeModel(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".", "./internal/core").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	banned := map[string]bool{}
	for _, p := range []string{"memsim", "topology", "sim", "workload", "fabric", "model"} {
		banned["github.com/lmp-project/lmp/internal/"+p] = true
	}
	for _, dep := range strings.Fields(string(out)) {
		if banned[dep] {
			t.Errorf("the runtime links %s", dep)
		}
	}
}
