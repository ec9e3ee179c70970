// Package lockorder defines an analyzer enforcing the stripe-lock
// discipline the PR-1 hot path depends on. The data path (accessSliceOnce)
// holds exactly one stripe lock released through one deferred unlock;
// vectored operations acquire every touched stripe in canonical ascending
// index order and release them all in a single deferred function;
// structural code (Release, compaction) may pair a lock/unlock inside one
// loop iteration because it never holds two stripes at once. Anything
// else — an inline unlock on a branch-heavy path, a multi-acquire loop
// over unsorted indices, taking the structural mutex while a stripe is
// held — reintroduces the leak and deadlock classes PR 1 eliminated.
//
// A "stripe lock" is any value of a named struct type whose name
// contains "stripe" and which embeds a sync.Mutex or sync.RWMutex, so
// the check follows the type wherever it is used. The rules are
// intentionally syntactic (per function, no interprocedural flow); a
// justified exception carries a //lint:ignore lockorder directive.
//
// Functions declared with an //lmp:commitwindow doc directive are the
// recovery/migration engine's movers: they reacquire stripe locks for
// deliberately short validate-and-swap windows (and barrier drains), so
// inline lock/unlock pairs are their correct shape and the
// single-deferred-unlock rule is waived for them. Every other rule —
// sorted multi-acquisition, structural-before-stripe, no rpc under a
// shard lock, and the whole-program checks — still applies inside a
// commit window.
//
// The analyzer additionally tracks cache shard locks — named struct
// types whose name contains "shard" embedding a sync mutex — and
// enforces the PR-4 flush protocol: a shard lock is never held across a
// call into an rpc package (import path "rpc" or ending in "/rpc"). The
// wire can block indefinitely and its completion path can re-enter the
// cache, so flush paths snapshot under the shard lock and call after
// release. Shard locks are exempt from the stripe rules (the cache hit
// path releases inline by design).
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/lmp-project/lmp/internal/analysis"
	"github.com/lmp-project/lmp/internal/analysis/summary"
)

// Analyzer is the lockorder analyzer: the syntactic rules run per
// package, the whole-program rules (interproc.go) once over every unit.
// One name covers both, so one //lint:ignore lockorder directive waives
// either aspect of the same discipline.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "enforce the stripe-lock discipline: single acquisitions release through a " +
		"deferred unlock, loop acquisitions either pair lock/unlock per iteration or " +
		"sort indices ascending first and release via one deferred function, the " +
		"structural mutex is never taken while a stripe lock is held, and a cache " +
		"shard lock is never held across a call into an rpc package; over the whole " +
		"program, no call under a stripe or cache-shard lock may transitively reach " +
		"an rpc package, nothing blocking or rpc-reaching may run under a " +
		"pending-table lock or a proc pin (nor a mutex or a nested pin under the pin), " +
		"no slice-size copy or Reed-Solomon coding may run under the structural or a " +
		"stripe lock, and the global lock graph must be acyclic",
	Run:     run,
	Program: runProgram,
}

// lockOp is one stripe-lock acquire/release (or structural-mutex
// acquire) found in a function body.
type lockOp struct {
	pos     token.Pos
	recv    string         // receiver expression, as written
	acquire bool           // Lock/RLock vs Unlock/RUnlock
	write   bool           // Lock/Unlock vs RLock/RUnlock
	forBody *ast.BlockStmt // innermost enclosing for/range body, if any
	inDefer bool           // lexically inside a defer statement
}

// funcLocks is everything the per-function rules need.
type funcLocks struct {
	ops    []lockOp
	shards []lockOp    // cache-shard lock ops (type name contains "shard")
	mus    []lockOp    // structural-mutex (.mu.Lock) acquisitions
	sorts  []token.Pos // sort.Slice / slices.Sort calls
	rpcs   []token.Pos // calls into an rpc package
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fl := &funcLocks{}
			collect(pass, fn.Body, fl, nil, false)
			report(pass, fl, summary.Annotated(fn, "commitwindow"))
		}
	}
	return nil
}

// collect walks a function body tracking the innermost enclosing for
// body and whether the walk is inside a defer.
func collect(pass *analysis.Pass, n ast.Node, fl *funcLocks, forBody *ast.BlockStmt, inDefer bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.ForStmt:
		collect(pass, n.Init, fl, forBody, inDefer)
		collect(pass, n.Cond, fl, forBody, inDefer)
		collect(pass, n.Post, fl, forBody, inDefer)
		collect(pass, n.Body, fl, n.Body, inDefer)
		return
	case *ast.RangeStmt:
		collect(pass, n.X, fl, forBody, inDefer)
		collect(pass, n.Body, fl, n.Body, inDefer)
		return
	case *ast.DeferStmt:
		collect(pass, n.Call, fl, forBody, true)
		return
	case *ast.FuncLit:
		// A non-deferred closure runs at an unknown time; analyze its
		// body as straight-line code of this function.
		collect(pass, n.Body, fl, nil, inDefer)
		return
	case *ast.CallExpr:
		classify(pass, n, fl, forBody, inDefer)
	}
	// Generic descent over all children not handled above.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n {
			return true
		}
		switch child.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.DeferStmt, *ast.FuncLit, *ast.CallExpr:
			collect(pass, child, fl, forBody, inDefer)
			return false
		}
		return true
	})
}

func classify(pass *analysis.Pass, call *ast.CallExpr, fl *funcLocks, forBody *ast.BlockStmt, inDefer bool) {
	defer func() {
		// Arguments and nested calls keep the current context.
		for _, arg := range call.Args {
			collect(pass, arg, fl, forBody, inDefer)
		}
	}()
	if name, ok := analysis.PkgFuncCall(pass.TypesInfo, call, "sort", "Slice", "SliceStable", "Ints"); ok {
		_ = name
		fl.sorts = append(fl.sorts, call.Pos())
		return
	}
	if _, ok := analysis.PkgFuncCall(pass.TypesInfo, call, "slices", "Sort", "SortFunc"); ok {
		fl.sorts = append(fl.sorts, call.Pos())
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		collect(pass, call.Fun, fl, forBody, inDefer)
		return
	}
	collect(pass, sel.X, fl, forBody, inDefer)
	if isRPCCall(pass.TypesInfo, sel) {
		fl.rpcs = append(fl.rpcs, call.Pos())
		return
	}
	method := sel.Sel.Name
	if method != "Lock" && method != "RLock" && method != "Unlock" && method != "RUnlock" {
		return
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return
	}
	op := lockOp{
		pos:     call.Pos(),
		recv:    types.ExprString(sel.X),
		acquire: method == "Lock" || method == "RLock",
		write:   method == "Lock" || method == "Unlock",
		forBody: forBody,
		inDefer: inDefer,
	}
	if isStripeType(t) {
		fl.ops = append(fl.ops, op)
		return
	}
	if isShardType(t) {
		fl.shards = append(fl.shards, op)
		return
	}
	if method == "Lock" && finalField(sel.X) == "mu" && summary.IsSyncMutex(t) && muOwnerIsPool(pass.TypesInfo, sel.X) {
		fl.mus = append(fl.mus, lockOp{pos: call.Pos(), forBody: forBody, inDefer: inDefer})
	}
}

// muOwnerIsPool reports whether the `.mu` receiver chain ends in a
// pool-typed owner — the structural lock's shape. Other bare `.mu`
// fields (the EC stripe lock, the coherence directory) have their own
// place in the hierarchy and are ordered by the whole-program lock
// graph, not by this syntactic rule.
func muOwnerIsPool(info *types.Info, e ast.Expr) bool {
	inner, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(inner.X)
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
	return strings.Contains(strings.ToLower(named.Obj().Name()), "pool")
}

func report(pass *analysis.Pass, fl *funcLocks, commitWindow bool) {
	var acquires, releases []lockOp
	for _, op := range fl.ops {
		if op.acquire {
			acquires = append(acquires, op)
		} else {
			releases = append(releases, op)
		}
	}
	// Inline releases are legal only when paired with an acquisition in
	// the same loop iteration (the lock is never held across iterations)
	// — or anywhere in a function declared //lmp:commitwindow, whose
	// short inline lock/unlock pairs ARE the recovery engine's commit
	// windows and barriers. The whole-program half still checks those
	// regions for rpc calls, heavy slice-size work, and lock-graph
	// ordering; the directive waives only the single-deferred-unlock
	// shape.
	for _, r := range releases {
		if r.inDefer || commitWindow {
			continue
		}
		paired := false
		for _, a := range acquires {
			if r.forBody != nil && a.forBody == r.forBody {
				paired = true
				break
			}
		}
		if !paired {
			pass.Reportf(r.pos, "stripe lock released inline; the discipline is one acquisition with a single deferred unlock")
		}
	}
	var heldToEnd []lockOp // single acquisitions released by defer
	for _, a := range acquires {
		if a.forBody != nil {
			iterPaired := false
			for _, r := range releases {
				if !r.inDefer && r.forBody == a.forBody {
					iterPaired = true
					break
				}
			}
			if iterPaired {
				continue
			}
			// Multi-acquire: stripes accumulate across iterations.
			sorted := false
			for _, s := range fl.sorts {
				if s < a.pos {
					sorted = true
					break
				}
			}
			if !sorted {
				pass.Reportf(a.pos, "stripe locks acquired in a loop without first sorting the indices; acquire stripes in canonical ascending order (sort before the loop)")
			}
			deferred := false
			for _, r := range releases {
				if r.inDefer {
					deferred = true
					break
				}
			}
			if !deferred {
				pass.Reportf(a.pos, "stripe locks held across a loop must be released through a single deferred unlock")
			}
			continue
		}
		deferredSame, inlineSame := false, false
		for _, r := range releases {
			if r.recv == a.recv && r.write == a.write {
				if r.inDefer {
					deferredSame = true
				} else {
					inlineSame = true
				}
			}
		}
		switch {
		case deferredSame:
			heldToEnd = append(heldToEnd, a)
		case inlineSame:
			// Already reported at the inline release.
		default:
			pass.Reportf(a.pos, "stripe lock acquired without a deferred unlock on every path (pair with defer %s.%s)", a.recv, unlockName(a.write))
		}
	}
	// Canonical order is structural → stripe: the structural mutex must
	// not be taken while a deferred-release stripe lock is held.
	for _, m := range fl.mus {
		if m.inDefer {
			continue
		}
		for _, a := range heldToEnd {
			if a.pos < m.pos {
				pass.Reportf(m.pos, "structural lock (.mu) acquired while a stripe lock is held; canonical order is structural lock then stripe lock")
				break
			}
		}
	}
	// A cache shard lock is never held across a call into an rpc package:
	// the wire can block indefinitely and its completion path can re-enter
	// the cache, so flush paths snapshot under the lock and call after
	// release.
	reported := make(map[token.Pos]bool)
	for _, a := range fl.shards {
		if !a.acquire || a.inDefer {
			continue
		}
		// The held region runs from the acquire to the first matching
		// inline release, or to the function's end for deferred releases.
		end := token.Pos(-1)
		for _, r := range fl.shards {
			if !r.acquire && !r.inDefer && r.recv == a.recv && r.pos > a.pos && (end < 0 || r.pos < end) {
				end = r.pos
			}
		}
		for _, c := range fl.rpcs {
			if c > a.pos && (end < 0 || c < end) && !reported[c] {
				reported[c] = true
				pass.Reportf(c, "cache shard lock held across a call into package rpc; copy under the lock and call after release")
			}
		}
	}
}

func unlockName(write bool) string {
	if write {
		return "Unlock"
	}
	return "RUnlock"
}

// isStripeType reports whether t (or *t) is a named struct type whose
// name contains "stripe" and which embeds sync.Mutex or sync.RWMutex.
func isStripeType(t types.Type) bool { return summary.EmbedsMutexNamed(t, "stripe") }

// isShardType reports whether t (or *t) is a named struct type whose
// name contains "shard" and which embeds sync.Mutex or sync.RWMutex —
// the cache-shard lock shape.
func isShardType(t types.Type) bool { return summary.EmbedsMutexNamed(t, "shard") }

// isRPCCall reports whether the selector call resolves to a function or
// method of an rpc package (import path "rpc" or ending in "/rpc").
func isRPCCall(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "rpc" || strings.HasSuffix(path, "/rpc")
}

// finalField returns the last selector component of e ("p.mu" → "mu"),
// or "" when e is not a selector chain.
func finalField(e ast.Expr) string {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}
