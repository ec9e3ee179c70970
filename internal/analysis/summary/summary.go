// Package summary computes per-function lock facts over the
// whole-program call graph for the lockorder analyzer: may-block (split
// into channel/external waits and mutex acquisition), calls-into-rpc,
// acquires-lock-class (the proc pin included) and performs-slice-size-
// work. Facts are a may-analysis: a function's facts are the union of
// the local facts of every function reachable from it in the call
// graph, computed once as a fixpoint, so a clean result is a proof
// (modulo the caveats below) while a reported fact may be a false
// positive on an unreachable branch.
//
// Soundness caveats:
//
//   - Interface calls use the call graph's class-hierarchy candidates;
//     an implementation outside the loaded units (or one reached via
//     reflection) is invisible.
//   - Calls through function values carry no facts, and neither does
//     the body of a `go` statement, whose work does not run on the
//     caller's stack.
//   - Callees outside the module resolve through a small intrinsic
//     table (sync, time, runtime); anything unlisted carries no facts.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"github.com/lmp-project/lmp/internal/analysis"
	"github.com/lmp-project/lmp/internal/analysis/callgraph"
)

// Fact is a bitset of per-function facts.
type Fact uint16

const (
	// BlocksChan: the function may park on a channel op, select, or an
	// external wait (time.Sleep, WaitGroup.Wait, cond wait).
	BlocksChan Fact = 1 << iota
	// BlocksMutex: the function may acquire a sync.Mutex/RWMutex.
	BlocksMutex
	// CallsRPC: the function may call into an rpc package (import path
	// "rpc" or ending in "/rpc").
	CallsRPC
	// AcqStripe..AcqStructural: the function may acquire a lock of the
	// named class (see LockClass).
	AcqStripe
	AcqShard
	AcqDirectory
	AcqStructural
	// AcqPending: the function may acquire a pending-table lock (an
	// rpc-layer tag table; innermost by contract).
	AcqPending
	// AcqCommit: the function may acquire a commit-window lock (the
	// per-slice mover lock; outermost of the pool hierarchy).
	AcqCommit
	// AcqPin: the function may take a runtime proc pin
	// (telemetry.BeginUpdate or a raw runtime_procPin; innermost by
	// contract).
	AcqPin
	// HeavyOp: the function may perform a slice-size operation — a
	// slice-size buffer allocation (make sized by SliceSize) or a
	// Reed-Solomon encode/reconstruct — that the control-plane rules
	// forbid under the structural or a stripe lock.
	HeavyOp
)

// String renders the fact bits for diagnostics.
func (f Fact) String() string {
	var parts []string
	for _, e := range []struct {
		bit  Fact
		name string
	}{
		{BlocksChan, "blocks"}, {BlocksMutex, "locks a mutex"}, {CallsRPC, "calls rpc"},
		{AcqStripe, "acquires a stripe lock"}, {AcqShard, "acquires a shard lock"},
		{AcqDirectory, "acquires the directory lock"}, {AcqStructural, "acquires the structural lock"},
		{AcqPending, "acquires the pending-table lock"},
		{AcqCommit, "acquires a commit-window lock"},
		{AcqPin, "takes a proc pin"},
		{HeavyOp, "performs a slice-size copy or reconstruction"},
	} {
		if f&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "pure"
	}
	return strings.Join(parts, ", ")
}

// LockClass identifies one level of the documented lock hierarchy.
type LockClass int

const (
	_ LockClass = iota
	LockStructural
	LockStripe
	LockShard
	LockDirectory
	LockPending
	LockCommit
	// LockPin is a runtime proc pin: not a mutex, but held the same way
	// (BeginUpdate…EndUpdate) and innermost of every class.
	LockPin
)

// classes gives each lock class its diagnostic name and acquisition fact.
var classes = [...]struct {
	name string
	acq  Fact
}{
	LockStructural: {"structural", AcqStructural},
	LockStripe:     {"stripe", AcqStripe},
	LockShard:      {"cache-shard", AcqShard},
	LockDirectory:  {"directory", AcqDirectory},
	LockPending:    {"pending-table", AcqPending},
	LockCommit:     {"commit-window", AcqCommit},
	LockPin:        {"proc-pin", AcqPin},
}

// String names the class as diagnostics print it.
func (c LockClass) String() string {
	if c <= 0 || int(c) >= len(classes) {
		return "none"
	}
	return classes[c].name
}

// AcqFact maps a lock class to its acquisition fact bit.
func (c LockClass) AcqFact() Fact {
	if c <= 0 || int(c) >= len(classes) {
		return 0
	}
	return classes[c].acq
}

// Site is one fact-bearing point in a function body: a local operation
// (channel op, lock acquisition, slice-size work) or a call site.
type Site struct {
	Pos   token.Pos
	Local Fact   // facts arising at the site itself
	What  string // human description of the local facts
	// Call is the resolved call site, nil for purely local operations.
	Call *callgraph.Site
	// Lit is the position of the function literal the site is written
	// in, when that literal is not invoked on the spot (0 otherwise).
	Lit token.Pos
}

// LockOp is one acquisition or release of a classified lock. Lit is
// Site.Lit's. Until, for a release that is a statement of an early-exit
// branch (an if, else or case body ending in a return or a jump), is the
// branch's end: past it, on the path that did not take the branch, the
// lock is still held.
type LockOp struct {
	Pos        token.Pos
	Class      LockClass
	Acquire    bool
	Deferred   bool
	Lit, Until token.Pos
}

// FnInfo is the per-function summary input: sites and lock operations
// in source order.
type FnInfo struct {
	Node  *callgraph.Node
	Sites []Site
	Locks []LockOp
}

// Program is the interprocedural state: every function's sites and the
// fixpoint of their facts.
type Program struct {
	Fset *token.FileSet
	Fns  map[string]*FnInfo

	facts map[string]Fact
}

// Build scans every function of units and computes the fact fixpoint.
func Build(units []*analysis.Unit) *Program {
	g := callgraph.Build(units)
	p := &Program{Fns: make(map[string]*FnInfo, len(g.Nodes))}
	if len(units) > 0 {
		p.Fset = units[0].Fset
	}
	for id, n := range g.Nodes {
		p.Fns[id] = scanFunc(n)
	}
	p.fixpoint()
	return p
}

// factsOf returns the fixpoint facts of the named function. External
// functions resolve through the intrinsic table.
func (p *Program) factsOf(id string) Fact {
	if f, ok := p.facts[id]; ok {
		return f
	}
	return externalFacts(id)
}

// callees lists the functions a call site may reach: its static callee
// or its interface candidates. Unresolved calls reach nothing.
func callees(c *callgraph.Site) []string {
	if c == nil || c.Unknown {
		return nil
	}
	if c.CalleeID != "" {
		return []string{c.CalleeID}
	}
	return c.Candidates
}

// SiteFacts returns the facts contributed by one site: its local facts
// plus its callees' fixpoint facts.
func (p *Program) SiteFacts(s Site) Fact {
	f := s.Local
	for _, c := range callees(s.Call) {
		f |= p.factsOf(c)
	}
	return f
}

// fixpoint iterates facts[n] = local(n) | union(callees) to a fixed
// point. The lattice is a finite bitset and the transfer function is
// monotone, so the loop terminates within bits×nodes rounds; in
// practice a handful of passes suffice.
func (p *Program) fixpoint() {
	p.facts = make(map[string]Fact, len(p.Fns))
	for id := range p.Fns {
		p.facts[id] = 0
	}
	for changed := true; changed; {
		changed = false
		for id, fi := range p.Fns {
			var f Fact
			for _, s := range fi.Sites {
				f |= p.SiteFacts(s)
			}
			if f != p.facts[id] {
				p.facts[id] = f
				changed = true
			}
		}
	}
}

// SiteWitness returns the chain grounding want at one site: the site's
// own local operation, or the call chain into its callee, one step per
// call plus a final step at the operation that introduces the fact.
// Returns nil when the site does not carry want.
func (p *Program) SiteWitness(s Site, want Fact) []analysis.RelatedPos {
	return p.siteWitness(s, want, map[string]bool{})
}

// witness returns the chain grounding want from the function id.
func (p *Program) witness(id string, want Fact, visited map[string]bool) []analysis.RelatedPos {
	if visited[id] {
		return nil
	}
	visited[id] = true
	fi, ok := p.Fns[id]
	if !ok {
		return nil
	}
	for _, s := range fi.Sites {
		if chain := p.siteWitness(s, want, visited); chain != nil {
			return chain
		}
	}
	return nil
}

func (p *Program) siteWitness(s Site, want Fact, visited map[string]bool) []analysis.RelatedPos {
	if s.Local&want != 0 {
		return []analysis.RelatedPos{{Pos: s.Pos, Message: s.What}}
	}
	for _, c := range callees(s.Call) {
		f := p.factsOf(c) & want
		if f == 0 {
			continue
		}
		if _, inProgram := p.Fns[c]; !inProgram {
			return []analysis.RelatedPos{{
				Pos:     s.Pos,
				Message: "calls " + callgraph.ShortName(c) + " (" + f.String() + ")",
			}}
		}
		if rest := p.witness(c, want, visited); rest != nil {
			step := analysis.RelatedPos{Pos: s.Pos, Message: "calls " + callgraph.ShortName(c)}
			return append([]analysis.RelatedPos{step}, rest...)
		}
	}
	return nil
}

// WitnessString renders a witness chain as one diagnostic-friendly
// line: "a.go:3 calls g -> b.go:7 channel receive".
func (p *Program) WitnessString(chain []analysis.RelatedPos) string {
	parts := make([]string, len(chain))
	for i, step := range chain {
		pos := p.Fset.Position(step.Pos)
		parts[i] = fmt.Sprintf("%s:%d %s", filepath.Base(pos.Filename), pos.Line, step.Message)
	}
	return strings.Join(parts, " -> ")
}

// Annotated reports whether the function declaration carries the given
// //lmp:<name> directive in its doc comment.
func Annotated(decl *ast.FuncDecl, name string) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "lmp:"+name || strings.HasPrefix(text, "lmp:"+name+" ") {
			return true
		}
	}
	return false
}

// scanFunc collects a function's fact sites and lock operations.
func scanFunc(n *callgraph.Node) *FnInfo {
	fi := &FnInfo{Node: n}
	// Index the call graph's resolved sites by position.
	calls := make(map[token.Pos]*callgraph.Site, len(n.Calls))
	for i := range n.Calls {
		calls[n.Calls[i].Pos] = &n.Calls[i]
	}
	s := &scanner{unit: n.Unit, calls: calls, fi: fi, exits: earlyExits(n.Decl.Body)}
	s.walk(n.Decl.Body, false)
	sort.SliceStable(fi.Sites, func(i, j int) bool { return fi.Sites[i].Pos < fi.Sites[j].Pos })
	sort.SliceStable(fi.Locks, func(i, j int) bool { return fi.Locks[i].Pos < fi.Locks[j].Pos })
	return fi
}

// earlyExits maps each call that is a statement of an early-exit branch
// to the branch's end (LockOp.Until).
func earlyExits(body *ast.BlockStmt) map[token.Pos]token.Pos {
	exits := map[token.Pos]token.Pos{}
	mark := func(list []ast.Stmt, end token.Pos) {
		if len(list) == 0 {
			return
		}
		switch list[len(list)-1].(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
		default:
			return
		}
		for _, st := range list {
			if es, ok := st.(*ast.ExprStmt); ok {
				exits[es.X.Pos()] = end
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IfStmt:
			mark(st.Body.List, st.Body.End())
			if e, ok := st.Else.(*ast.BlockStmt); ok {
				mark(e.List, e.End())
			}
		case *ast.CaseClause:
			mark(st.Body, st.End())
		case *ast.CommClause:
			mark(st.Body, st.End())
		}
		return true
	})
	return exits
}

type scanner struct {
	unit  *analysis.Unit
	calls map[token.Pos]*callgraph.Site
	fi    *FnInfo
	exits map[token.Pos]token.Pos
	lit   token.Pos // the literal being walked (Site.Lit)
}

func (s *scanner) add(pos token.Pos, f Fact, what string) {
	s.fi.Sites = append(s.fi.Sites, Site{Pos: pos, Local: f, What: what, Lit: s.lit})
}

// walk descends n collecting fact sites; deferred tracks whether the
// walk is lexically inside a defer statement (a deferred lock release
// holds to function exit, not to its lexical position).
func (s *scanner) walk(n ast.Node, deferred bool) {
	if n == nil {
		return
	}
	info := s.unit.Info
	ast.Inspect(n, func(child ast.Node) bool {
		switch e := child.(type) {
		case *ast.DeferStmt:
			s.callExpr(e.Call, true)
			return false
		case *ast.GoStmt:
			// The spawned body runs elsewhere: it contributes nothing to
			// the caller's facts.
			return false
		case *ast.FuncLit:
			// A literal not invoked on the spot escapes as a value; its
			// body is attributed here (it may run here).
			outer := s.lit
			s.lit = e.Pos()
			s.walk(e.Body, false)
			s.lit = outer
			return false
		case *ast.SendStmt:
			s.add(e.Pos(), BlocksChan, "channel send")
		case *ast.SelectStmt:
			s.add(e.Pos(), BlocksChan, "select")
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				s.add(e.Pos(), BlocksChan, "channel receive")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					s.add(e.Pos(), BlocksChan, "range over channel")
				}
			}
		case *ast.CallExpr:
			s.callExpr(e, deferred)
			return false
		}
		return true
	})
}

// callExpr classifies one call expression and descends into fun/args.
// A literal invoked on the spot (or deferred) is plain code of this
// function: its body is walked once, in the call's defer context.
func (s *scanner) callExpr(call *ast.CallExpr, deferred bool) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		s.walk(lit.Body, deferred)
	} else {
		s.classify(call, deferred)
		s.walk(call.Fun, deferred)
	}
	for _, a := range call.Args {
		s.walk(a, deferred)
	}
}

// classify records the facts and lock operations of one call that is
// not a literal.
func (s *scanner) classify(call *ast.CallExpr, deferred bool) {
	info := s.unit.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "make" && sizedBySliceSize(call) {
				s.add(call.Pos(), HeavyOp, "make sized by SliceSize (slice-size allocation)")
			}
			return
		}
	}
	if op, ok := s.lockOp(call); ok {
		op.Deferred, op.Lit = deferred, s.lit
		if !op.Acquire {
			op.Until = s.exits[call.Pos()]
		}
		s.fi.Locks = append(s.fi.Locks, op)
		if op.Acquire {
			s.add(call.Pos(), BlocksMutex|op.Class.AcqFact(), "acquires the "+op.Class.String()+" lock")
		}
		return
	}
	site, ok := s.calls[call.Pos()]
	if !ok {
		return
	}
	if pin, ok := pinOp(site.CalleeID); ok {
		op := LockOp{Pos: call.Pos(), Class: LockPin, Acquire: pin, Deferred: deferred, Lit: s.lit}
		if !pin {
			op.Until = s.exits[call.Pos()]
		}
		s.fi.Locks = append(s.fi.Locks, op)
		if pin {
			s.add(call.Pos(), AcqPin, "takes a proc pin ("+callgraph.ShortName(site.CalleeID)+")")
		}
		return
	}
	st := Site{Pos: call.Pos(), Call: site, Lit: s.lit}
	if isRPCPath(site.CalleePkg) {
		st.Local |= CallsRPC
		st.What = "call into package rpc"
	}
	if isRSCodingCall(info, call) {
		st.Local |= HeavyOp
		st.What = "Reed-Solomon encode/reconstruct (slice-size compute)"
	}
	s.fi.Sites = append(s.fi.Sites, st)
}

// pinOp reports whether a callee takes (acquire) or releases a proc
// pin: telemetry.BeginUpdate/EndUpdate, or a raw runtime_procPin/
// runtime_procUnpin linkname. Matched by name suffix, so fixtures that
// mirror the telemetry package resolve too.
func pinOp(id string) (acquire, ok bool) {
	switch {
	case strings.HasSuffix(id, "telemetry.BeginUpdate"), strings.HasSuffix(id, "_procPin"):
		return true, true
	case strings.HasSuffix(id, "telemetry.EndUpdate"), strings.HasSuffix(id, "_procUnpin"):
		return false, true
	}
	return false, false
}

// sizedBySliceSize reports whether a make call sizes its result with the
// SliceSize constant (directly or behind a selector like core.SliceSize):
// the signature of a slice-size staging allocation, which belongs in the
// engine's buffer pool, never under the structural or a stripe lock.
func sizedBySliceSize(call *ast.CallExpr) bool {
	for _, a := range call.Args[1:] {
		found := false
		ast.Inspect(a, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "SliceSize" {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isRSCodingCall reports whether call invokes a Reed-Solomon coding
// method (Encode/EncodeInto/Reconstruct/ReconstructInto) on an RS codec:
// O(K×SliceSize) of GF(256) arithmetic, forbidden under the structural
// or a stripe lock.
func isRSCodingCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Encode", "EncodeInto", "Reconstruct", "ReconstructInto":
	default:
		return false
	}
	return namedTypeIs(info.TypeOf(sel.X), "RS")
}

// lockOp classifies sel.Lock()/Unlock()-shaped calls against the lock
// hierarchy: embedded commit/stripe/shard/pending mutexes by type name,
// the coherence directory's mu, and the pool's structural mu.
func (s *scanner) lockOp(call *ast.CallExpr) (LockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockOp{}, false
	}
	method := sel.Sel.Name
	if method != "Lock" && method != "RLock" && method != "Unlock" && method != "RUnlock" {
		return LockOp{}, false
	}
	t := s.unit.Info.TypeOf(sel.X)
	if t == nil {
		return LockOp{}, false
	}
	op := LockOp{Pos: call.Pos(), Acquire: method == "Lock" || method == "RLock"}
	switch {
	case EmbedsMutexNamed(t, "commit"):
		op.Class = LockCommit
	case EmbedsMutexNamed(t, "stripe"):
		op.Class = LockStripe
	case EmbedsMutexNamed(t, "shard"):
		op.Class = LockShard
	case EmbedsMutexNamed(t, "pending"):
		op.Class = LockPending
	case IsSyncMutex(t):
		// x.mu.Lock(): classify by the mutex's owner type.
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "mu" {
			return LockOp{}, false
		}
		owner := s.unit.Info.TypeOf(inner.X)
		switch {
		case namedTypeContains(owner, "directory"):
			op.Class = LockDirectory
		case namedTypeIs(owner, "Pool"):
			op.Class = LockStructural
		default:
			return LockOp{}, false
		}
	default:
		return LockOp{}, false
	}
	return op, true
}

// isRPCPath reports whether path names an rpc package.
func isRPCPath(path string) bool {
	return path == "rpc" || strings.HasSuffix(path, "/rpc")
}

// EmbedsMutexNamed reports whether t (or *t) is a named struct type
// whose name contains substr (case-insensitive) and which embeds
// sync.Mutex or sync.RWMutex.
func EmbedsMutexNamed(t types.Type, substr string) bool {
	if !namedTypeContains(t, substr) {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && IsSyncMutex(f.Type()) {
			return true
		}
	}
	return false
}

// IsSyncMutex reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func IsSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func namedTypeContains(t types.Type, substr string) bool {
	name, ok := namedTypeName(t)
	return ok && strings.Contains(strings.ToLower(name), substr)
}

func namedTypeIs(t types.Type, name string) bool {
	n, ok := namedTypeName(t)
	return ok && n == name
}

func namedTypeName(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	return named.Obj().Name(), true
}
