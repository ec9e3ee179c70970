// Package callgraph builds a whole-program call graph over the units the
// lmplint loader produced. Nodes are keyed by the canonical function name
// (types.Func.FullName of the generic origin), which is stable between a
// package type-checked from source and the same package seen through
// compiled export data — the property that lets one graph span every
// separately-checked unit of the module.
//
// Resolution policy, in decreasing precision:
//
//   - Static calls (package-level functions, methods on concrete
//     receivers — including promoted methods) resolve to exactly one
//     callee.
//   - Interface method calls devirtualize by class-hierarchy analysis:
//     the candidate set is every method of that name, declared on any
//     type defined in the loaded units, whose receiver implements the
//     interface. An interface call with no in-program candidates is
//     treated as unknown.
//   - Calls through function values (variables, parameters, struct
//     fields, results) are unknown: downstream fact propagation treats
//     them conservatively. Immediately-invoked function literals are the
//     exception — their bodies are flattened into the enclosing
//     function, as are all other literal bodies (a closure built here
//     may run here, so its effects are attributed here).
//
// `go` statements are recorded with Go=true: the spawned work does not
// execute on the caller's stack, so fact propagation skips them.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/lmp-project/lmp/internal/analysis"
)

// Node is one function with a body in the loaded units.
type Node struct {
	ID   string
	Fn   *types.Func
	Decl *ast.FuncDecl
	Unit *analysis.Unit
	// Calls lists the node's call sites in source order, including sites
	// inside function literals (flattened; see the package comment).
	Calls []Site
}

// Site is one call site.
type Site struct {
	Pos  token.Pos
	Call *ast.CallExpr
	// CalleeID names the unique static callee ("" when not static).
	CalleeID string
	// CalleePkg is the import path of the callee's package: the static
	// callee's package, or the interface's package for devirtualized
	// calls ("" when unknown).
	CalleePkg string
	// Candidates holds the devirtualized callee set of an interface
	// call (empty for static and unknown calls).
	Candidates []string
	// Method names the interface method an interface call dispatches on
	// ("" for static and unknown calls).
	Method string
	// Unknown marks a call through a function value or an interface
	// call with no in-program candidates.
	Unknown bool
	// Deferred marks a call site inside a defer statement: it executes at
	// function exit (while locks released by later-registered defers are
	// still held).
	Deferred bool
	// Go marks a spawned call: it does not run on the caller's stack.
	Go bool
}

// Graph is the whole-program call graph.
type Graph struct {
	// Nodes maps canonical function names to nodes, for every function
	// and method with a body in the loaded units.
	Nodes map[string]*Node
}

// FuncID returns the canonical graph key for fn: the FullName of its
// generic origin, e.g. "path/to/pkg.F" or "(*path/to/pkg.T).M".
func FuncID(fn *types.Func) string {
	return fn.Origin().FullName()
}

// Build constructs the call graph over units.
func Build(units []*analysis.Unit) *Graph {
	g := &Graph{Nodes: make(map[string]*Node)}
	// First pass: create nodes and collect the program's defined types
	// for interface devirtualization.
	var concrete []types.Type
	seenType := map[string]bool{}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := u.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					id := FuncID(fn)
					if d.Body == nil {
						// Body-less declaration (//go:linkname extern):
						// summaries assign it intrinsic facts; no node.
						continue
					}
					if _, dup := g.Nodes[id]; dup {
						continue // e.g. the same file listed twice; keep the first
					}
					g.Nodes[id] = &Node{ID: id, Fn: fn, Decl: d, Unit: u}
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						tn, ok := u.Info.Defs[ts.Name].(*types.TypeName)
						if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
							// Interfaces are dispatch points, not dispatch
							// targets: admitting one as a CHA candidate would
							// add its body-less abstract method, a callee
							// with no body for the summary layer to read.
							continue
						}
						key := tn.Pkg().Path() + "." + tn.Name()
						if !seenType[key] {
							seenType[key] = true
							concrete = append(concrete, tn.Type())
						}
					}
				}
			}
		}
	}
	// Second pass: collect call sites.
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				node := g.Nodes[FuncID(fn)]
				if node == nil {
					continue
				}
				c := &collector{unit: u, graph: g, concrete: concrete}
				c.walk(d.Body, false, false)
				node.Calls = c.sites
			}
		}
	}
	return g
}

// collector gathers call sites from one function body.
type collector struct {
	unit     *analysis.Unit
	graph    *Graph
	concrete []types.Type
	sites    []Site
}

// walk descends n, tracking defer/go context.
func (c *collector) walk(n ast.Node, deferred, goStmt bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(child ast.Node) bool {
		switch s := child.(type) {
		case *ast.DeferStmt:
			c.call(s.Call, true, goStmt)
			return false
		case *ast.GoStmt:
			c.call(s.Call, deferred, true)
			return false
		case *ast.CallExpr:
			c.call(s, deferred, goStmt)
			return false
		}
		return true
	})
}

// call records one call expression (and descends into its fun/args).
func (c *collector) call(call *ast.CallExpr, deferred, goStmt bool) {
	// A deferred or spawned literal runs as part of this statement's
	// dynamic extent; its body keeps the defer/go flags. A literal called
	// on the spot is plain code.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.walk(lit.Body, deferred, goStmt)
		for _, a := range call.Args {
			c.walk(a, deferred, goStmt)
		}
		return
	}
	site, record := c.resolve(call)
	if record {
		site.Pos = call.Pos()
		site.Call = call
		site.Deferred = deferred
		site.Go = goStmt
		c.sites = append(c.sites, site)
	}
	c.walk(call.Fun, deferred, goStmt)
	for _, a := range call.Args {
		c.walk(a, deferred, goStmt)
	}
}

// resolve classifies the callee. record is false for conversions and
// builtins, which are not calls (the summary layer accounts them as
// local operations).
func (c *collector) resolve(call *ast.CallExpr) (Site, bool) {
	info := c.unit.Info
	fun := ast.Unparen(call.Fun)
	// Conversions: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return Site{}, false
	}
	switch e := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			return staticSite(obj), true
		case *types.Builtin:
			return Site{}, false
		case nil:
			// Defs for the rare recursive local case; otherwise unknown.
			if fn, ok := info.Defs[e].(*types.Func); ok {
				return staticSite(fn), true
			}
			return Site{Unknown: true}, true
		default:
			return Site{Unknown: true}, true // function-typed variable
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn := sel.Obj().(*types.Func)
				recv := sel.Recv()
				if types.IsInterface(recv) {
					return c.devirtualize(fn), true
				}
				return staticSite(fn), true
			default: // FieldVal: function-typed struct field
				return Site{Unknown: true}, true
			}
		}
		// Qualified reference: pkg.F.
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				return c.devirtualize(fn), true
			}
			return staticSite(fn), true
		}
		return Site{Unknown: true}, true
	default:
		// Call of an arbitrary expression: function value.
		return Site{Unknown: true}, true
	}
}

// staticSite builds a resolved site for a uniquely known callee.
func staticSite(fn *types.Func) Site {
	s := Site{CalleeID: FuncID(fn)}
	if p := fn.Pkg(); p != nil {
		s.CalleePkg = p.Path()
	}
	return s
}

// devirtualize lists every in-program method that an interface call to
// m could dispatch to: methods named m.Name() on defined types whose
// method set satisfies m's interface.
func (c *collector) devirtualize(m *types.Func) Site {
	iface := m.Type().(*types.Signature).Recv().Type()
	var candidates []string
	seen := map[string]bool{}
	for _, t := range c.concrete {
		for _, recv := range []types.Type{t, types.NewPointer(t)} {
			if !implements(recv, iface.Underlying().(*types.Interface)) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				id := FuncID(fn)
				if !seen[id] {
					seen[id] = true
					candidates = append(candidates, id)
				}
			}
		}
	}
	sort.Strings(candidates)
	if len(candidates) == 0 {
		return Site{Unknown: true}
	}
	s := Site{Candidates: candidates, Method: FuncID(m)}
	if p := m.Pkg(); p != nil {
		s.CalleePkg = p.Path()
	}
	return s
}

// ShortName compresses a canonical function name for diagnostics: the
// module prefix is dropped, so
// "(*github.com/lmp-project/lmp/internal/cache.Cache).ReadAt" prints as
// "(*cache.Cache).ReadAt" and package-level functions as "core.Read".
func ShortName(id string) string {
	out := id
	if i := strings.LastIndex(out, "/"); i >= 0 {
		// Keep everything after the last path separator; re-attach a
		// leading "(*" or "(" stripped with the path.
		prefix := ""
		if strings.HasPrefix(out, "(*") {
			prefix = "(*"
		} else if strings.HasPrefix(out, "(") {
			prefix = "("
		}
		out = prefix + out[i+1:]
	}
	return out
}

// implements reports whether recv's method set satisfies iface. Each unit
// imports the packages it depends on afresh, so a type of one unit and an
// interface of another name different objects for the same imported type
// (context.Context, say) and types.Implements says no. Between units the
// test is by spelling instead: every interface method has an exported
// namesake on recv whose parameter and result types print the same,
// package paths and all.
func implements(recv types.Type, iface *types.Interface) bool {
	if types.Implements(recv, iface) {
		return true
	}
	ms := types.NewMethodSet(recv)
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if !m.Exported() {
			return false // only a type of m's own package can have it
		}
		sel := ms.Lookup(nil, m.Name())
		if sel == nil || signatureKey(sel.Type().(*types.Signature)) != signatureKey(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// signatureKey spells a signature's parameter and result types with full
// package paths, leaving out names and the receiver.
func signatureKey(sig *types.Signature) string {
	qualify := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qualify))
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
