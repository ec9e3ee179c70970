package summary

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"github.com/lmp-project/lmp/internal/analysis"
)

const factsSrc = `package q

import "sync"

var mu sync.Mutex

func leaf(ch chan int) int { return <-ch }

func mid(ch chan int) int { return leaf(ch) }

func top(ch chan int) int { return mid(ch) }

func locks() { mu.Lock(); mu.Unlock() }

func waiter(ch chan int) { <-ch }

func spawns(ch chan int) { go waiter(ch) }

func loopA(ch chan int) { loopB(ch) }

func loopB(ch chan int) { loopA(ch); <-ch }

func deferredLit(ch chan int) {
	defer func() { ch <- 1 }()
}

// lmp:commitwindow
func tagged() {}
`

func buildProgram(t *testing.T) *Program {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "q.go", factsSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewInfo()
	tpkg, err := (&types.Config{Importer: importer.Default()}).Check("q", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	u := &analysis.Unit{PkgPath: "q", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
	return Build([]*analysis.Unit{u})
}

func TestFixpoint(t *testing.T) {
	p := buildProgram(t)
	if f := p.factsOf("q.top"); f != BlocksChan {
		t.Errorf("top: facts %v, want BlocksChan (two calls deep)", f)
	}
	if f := p.factsOf("q.locks"); f != BlocksMutex {
		t.Errorf("locks: facts %v, want BlocksMutex through the intrinsic table", f)
	}
	// go statements: the spawned body's blocking runs on another
	// goroutine and must not leak into the caller.
	if f := p.factsOf("q.spawns"); f != 0 {
		t.Errorf("spawns: facts %v, want pure", f)
	}
	// Mutual recursion converges and both members see the receive.
	if f := p.factsOf("q.loopA"); f&BlocksChan == 0 {
		t.Errorf("loopA: facts %v, want BlocksChan via recursion", f)
	}
	// A deferred literal's body is walked once, as deferred code.
	fi := p.Fns["q.deferredLit"]
	if len(fi.Sites) != 1 {
		t.Errorf("deferredLit: %d sites, want the one send", len(fi.Sites))
	}
}

func TestExternalFallback(t *testing.T) {
	p := buildProgram(t)
	if f := p.factsOf("strings.Repeat"); f != 0 {
		t.Errorf("unlisted external: facts %v, want pure", f)
	}
}

func TestWitness(t *testing.T) {
	p := buildProgram(t)
	chain := p.witness("q.top", BlocksChan, map[string]bool{})
	if len(chain) != 3 {
		t.Fatalf("witness length %d, want 3: %q", len(chain), p.WitnessString(chain))
	}
	wantMsgs := []string{"calls q.mid", "calls q.leaf", "channel receive"}
	for i, m := range wantMsgs {
		if chain[i].Message != m {
			t.Errorf("step %d: %q, want %q", i, chain[i].Message, m)
		}
	}
	if s := p.WitnessString(chain); s == "" {
		t.Error("WitnessString: empty render")
	}
	if chain := p.witness("q.top", BlocksMutex, map[string]bool{}); chain != nil {
		t.Errorf("top takes no mutex; witness = %q", p.WitnessString(chain))
	}
	chain = p.witness("q.locks", BlocksMutex, map[string]bool{})
	if len(chain) != 1 || chain[0].Message != "calls (*sync.Mutex).Lock (locks a mutex)" {
		t.Errorf("locks: witness %q, want the one external call", p.WitnessString(chain))
	}
}

func TestAnnotated(t *testing.T) {
	p := buildProgram(t)
	fi := p.Fns["q.tagged"]
	if fi == nil {
		t.Fatal("no function q.tagged")
	}
	if !Annotated(fi.Node.Decl, "commitwindow") {
		t.Error("tagged: Annotated(commitwindow) = false")
	}
	if Annotated(fi.Node.Decl, "commit") {
		t.Error("tagged: Annotated(commit) = true for a longer directive")
	}
	if Annotated(p.Fns["q.top"].Node.Decl, "commitwindow") {
		t.Error("top: Annotated(commitwindow) = true for undocumented func")
	}
}

func TestExternalFacts(t *testing.T) {
	cases := map[string]Fact{
		"(*sync.Mutex).Lock":     BlocksMutex,
		"(*sync.Mutex).Unlock":   0,
		"(*sync.RWMutex).RLock":  BlocksMutex,
		"(*sync.WaitGroup).Wait": BlocksChan,
		"sync/atomic.AddUint64":  0,
		"time.Sleep":             BlocksChan,
		"errors.Is":              0,
		"fmt.Sprintf":            0,
	}
	for id, want := range cases {
		if got := externalFacts(id); got != want {
			t.Errorf("externalFacts(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestFactString(t *testing.T) {
	if got := Fact(0).String(); got != "pure" {
		t.Errorf("Fact(0) = %q, want pure", got)
	}
	if got := (BlocksChan | BlocksMutex).String(); got != "blocks, locks a mutex" {
		t.Errorf("BlocksChan|BlocksMutex = %q", got)
	}
	if got := (AcqPin | CallsRPC).String(); got != "calls rpc, takes a proc pin" {
		t.Errorf("AcqPin|CallsRPC = %q", got)
	}
}
