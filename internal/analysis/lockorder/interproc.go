// Whole-program lockorder: the syntactic rules in this package catch
// in-function violations; Analyzer.Program adds the checks a helper one
// call deep used to defeat, over the lock facts package summary
// computes.
//
//  1. Transitive RPC under a data lock: no call made while a stripe or
//     cache-shard lock is held may *transitively* reach an rpc package.
//     The wire can block indefinitely and its completion path can
//     re-enter the cache; the syntactic rule only sees direct calls.
//     1b. Innermost locks. The rpc pending-table lock (any named struct
//     embedding a mutex with "pending" in its name) is the transport's
//     innermost lock: a blocking channel operation or an rpc-reaching
//     call under it — directly or through helpers — is reported. The
//     legal shape is take-then-complete: withdraw the table entry under
//     the lock and resolve it after release. A proc pin
//     (telemetry.BeginUpdate…EndUpdate, or a raw runtime_procPin/
//     runtime_procUnpin pair) is innermost of all: while pinned the
//     goroutine owns its P, so a channel wait, a mutex acquisition, an
//     rpc-reaching call or a nested pin under it is reported too.
//     1c. Slice-size work under a hot lock: the recovery/migration engine's
//     contract is that bulk bytes move outside the structural and stripe
//     locks, which are only reacquired for short commit windows. A
//     slice-size staging allocation (make sized by SliceSize) or a
//     Reed-Solomon encode/reconstruct reached — directly or through
//     helpers — while either lock is held is reported; the commit-window
//     lock (a named struct embedding a mutex with "commit" in its name)
//     is where that work belongs.
//  2. Lock-graph cycles: every function contributes edges "holding
//     class H, acquires class A" (directly or through any callee) to a
//     global graph over the lock hierarchy — commit-window, structural,
//     stripe, cache-shard, directory, pending-table, proc pin. Any cycle
//     is a potential deadlock and is reported with the witness path for
//     each edge. Self-edges are not cycles: multi-stripe acquisition is
//     legal because the vectored path sorts stripe indices first (the
//     syntactic rule enforces the sort).
//
// Held regions are lexical, like the syntactic rules: a lock is held
// from its acquire to the first matching inline release, or to the end
// of the body when released by defer — including a release inside a
// deferred closure, such as the loop that drops every stripe a sorted
// multi-lock loop took. A release in an early-exit branch (an if, else
// or case body ending in a return or a jump) ends the region only within
// that branch: the path that falls past it still holds the lock.
// Deferred and go-spawned calls are not attributed to the held region. A
// function literal not invoked on the spot is a region of its own: the
// locks it takes are charged to the calls it makes, the locks held where
// it is written are not — it may run after their release (the flush
// path does exactly that). The known cost: a call through a function
// value carries no facts, so a closure called under a lock escapes these
// checks; the pool reaches its lenders by method call, never through a
// function value, so that every lender call is seen.
package lockorder

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"github.com/lmp-project/lmp/internal/analysis"
	"github.com/lmp-project/lmp/internal/analysis/callgraph"
	"github.com/lmp-project/lmp/internal/analysis/summary"
)

// lockEdge is one "holding from, acquires to" observation.
type lockEdge struct {
	from, to summary.LockClass
	fn       string // function contributing the edge
	pos      token.Pos
	chain    []analysis.RelatedPos
}

func runProgram(units []*analysis.Unit, report func(analysis.Diagnostic)) error {
	p := summary.Build(units)
	ids := make([]string, 0, len(p.Fns))
	for id := range p.Fns {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	edges := map[[2]summary.LockClass]lockEdge{}
	for _, id := range ids {
		scanHeldRegions(p, id, report, edges)
	}
	reportCycles(p, edges, report)
	return nil
}

// acqMask covers the classified acquisition facts.
const acqMask = summary.AcqStripe | summary.AcqShard | summary.AcqDirectory |
	summary.AcqStructural | summary.AcqPending | summary.AcqCommit | summary.AcqPin

var lockClasses = []summary.LockClass{
	summary.LockCommit, summary.LockStructural, summary.LockStripe,
	summary.LockShard, summary.LockDirectory, summary.LockPending, summary.LockPin,
}

// innermost names, per innermost class, the facts barred under it. The
// pending table is the transport's innermost lock, so a send (a
// completion channel lives on the other side) or any call that can
// re-enter the rpc layer while holding it is a deadlock seed. A proc pin
// owns its P: nothing under it may park, take a mutex, reach the wire
// or pin again.
var innermost = []struct {
	class     summary.LockClass
	forbidden summary.Fact
}{
	{summary.LockPending, summary.BlocksChan | summary.CallsRPC},
	{summary.LockPin, summary.AcqPin | summary.BlocksChan | summary.BlocksMutex | summary.CallsRPC},
}

// innermostWhat orders the barred facts for reporting: the first one a
// site carries is the one its diagnostic names.
var innermostWhat = []struct {
	fact summary.Fact
	what string
}{
	{summary.AcqPin, "a nested proc pin"},
	{summary.BlocksChan, "a blocking channel operation"},
	{summary.BlocksMutex, "a mutex acquisition"},
	{summary.CallsRPC, "a call that transitively reaches package rpc"},
}

// lenderCalls is rule 1's one declared exception: the lender calls under
// a stripe lock, which reach rpc when the lender is remote. Each is
// handed a context that bounds its round trip: the op's, on the data
// path and in the recovery it runs, or a mover's moveCtx (moveTimeout),
// in a move's pre-copy and commit window. Only the stripe lock is excused: the same call under a
// cache-shard or directory lock is still reported, and so is any
// rpc-reaching call under the pending-table lock or a proc pin (rule 1b).
// An entry is the function holding the stripe lock and the callee it
// may call under it — a static callee, or the interface method a call
// dispatches on — as callgraph.ShortName spells them. DESIGN.md "The
// lender seam" tables the same list, and TestLenderCallsMatchDesign
// holds the two together.
var lenderCalls = []struct{ holder, callee string }{
	{"(*core.Pool).accessSliceOnce", "(*core.Pool).readLocked"},
	{"(*core.Pool).accessSliceOnce", "(*core.Pool).fillLocked"},
	{"(*core.Pool).accessSliceOnce", "(*core.Pool).writeSliceLocked"},
	{"(*core.Pool).vectoredOnce", "(*core.Pool).readLocked"},
	{"(*core.Pool).vectoredOnce", "(*core.Pool).writeSliceLocked"},
	{"(*core.Pool).vectoredOnce", "(core.Lender).WriteAt"},
	{"(*core.Pool).readSurvivingReplica", "(core.Lender).ReadAt"},
	{"(*core.Pool).moveBlockCommitted", "(*core.Pool).readBlockLocked"},
	{"(*core.Pool).moveBlockCommitted", "(core.Lender).WriteAt"},
}

// rpcHolder names the lock rule 1 charges a call site of function fn
// with, if any: a cache-shard or directory lock, or a stripe lock unless
// the site is a declared lender call and no other data lock is held.
func rpcHolder(held map[summary.LockClass]int, fn string, c *callgraph.Site) (summary.LockClass, bool) {
	for _, class := range []summary.LockClass{summary.LockShard, summary.LockDirectory} {
		if held[class] > 0 {
			return class, true
		}
	}
	if held[summary.LockStripe] == 0 {
		return 0, false
	}
	if c != nil {
		callee := c.CalleeID
		if callee == "" {
			callee = c.Method
		}
		for _, e := range lenderCalls {
			if e.holder == callgraph.ShortName(fn) && e.callee == callgraph.ShortName(callee) {
				return 0, false
			}
		}
	}
	return summary.LockStripe, true
}

// scanHeldRegions walks one function's sites in source order with the
// lexically-held lock set, reporting transitive RPC reachability and
// collecting lock-graph edges.
func scanHeldRegions(p *summary.Program, id string, report func(analysis.Diagnostic), edges map[[2]summary.LockClass]lockEdge) {
	fi := p.Fns[id]
	// held counts the locks held per lexical region: the body (0) and
	// each function literal, keyed by its position.
	held := map[token.Pos]map[summary.LockClass]int{}
	heldIn := func(lit token.Pos) map[summary.LockClass]int {
		if held[lit] == nil {
			held[lit] = map[summary.LockClass]int{}
		}
		return held[lit]
	}
	// restores are the early-exit releases still to be undone.
	var restores []summary.LockOp
	restore := func(before token.Pos) {
		for i := 0; i < len(restores); {
			if op := restores[i]; op.Until < before {
				heldIn(op.Lit)[op.Class]++
				restores = append(restores[:i], restores[i+1:]...)
				continue
			}
			i++
		}
	}
	li := 0
	for _, s := range fi.Sites {
		// Apply lock operations strictly before this site; a deferred
		// release keeps the lock held to the end of the body.
		for li < len(fi.Locks) && fi.Locks[li].Pos < s.Pos {
			op := fi.Locks[li]
			li++
			restore(op.Pos)
			h := heldIn(op.Lit)
			switch {
			case op.Deferred:
			case op.Acquire:
				h[op.Class]++
			case h[op.Class] > 0:
				h[op.Class]--
				if op.Until != 0 {
					restores = append(restores, op)
				}
			}
		}
		restore(s.Pos)
		if s.Call != nil && s.Call.Deferred {
			continue // runs at exit, outside the lexical held region
		}
		held := heldIn(s.Lit)
		anyHeld := false
		for _, c := range lockClasses {
			if held[c] > 0 {
				anyHeld = true
			}
		}
		if !anyHeld {
			continue
		}
		facts := p.SiteFacts(s)
		// Rule 1: nothing under a stripe, cache-shard or directory lock
		// reaches rpc, but for the declared lender calls under a stripe
		// lock alone.
		if holder, ok := rpcHolder(held, id, s.Call); ok && facts&summary.CallsRPC != 0 {
			chain := p.SiteWitness(s, summary.CallsRPC)
			report(analysis.Diagnostic{
				Pos: s.Pos,
				Message: fmt.Sprintf("%s lock held across a call that transitively reaches package rpc: %s",
					holder, p.WitnessString(chain)),
				Related: chain,
			})
		}
		// Rule 1b: nothing barred under an innermost lock, reported once
		// per site with the first barred fact it carries.
		for _, in := range innermost {
			bad := facts & in.forbidden
			if held[in.class] == 0 || bad == 0 {
				continue
			}
			for _, w := range innermostWhat {
				if bad&w.fact == 0 {
					continue
				}
				chain := p.SiteWitness(s, w.fact)
				report(analysis.Diagnostic{
					Pos: s.Pos,
					Message: fmt.Sprintf("%s lock held across %s: %s",
						in.class, w.what, p.WitnessString(chain)),
					Related: chain,
				})
				break
			}
		}
		// Rule 1c: slice-size staging allocations and Reed-Solomon coding
		// stay out of the structural and stripe hold windows — bulk bytes
		// move under the commit-window lock alone, and the inner locks are
		// reacquired only to validate and swap pointers.
		if facts&summary.HeavyOp != 0 && (held[summary.LockStructural] > 0 || held[summary.LockStripe] > 0) {
			holder := summary.LockStructural
			if held[summary.LockStructural] == 0 {
				holder = summary.LockStripe
			}
			chain := p.SiteWitness(s, summary.HeavyOp)
			report(analysis.Diagnostic{
				Pos: s.Pos,
				Message: fmt.Sprintf("%s lock held across a slice-size copy or reconstruction: %s",
					holder, p.WitnessString(chain)),
				Related: chain,
			})
		}
		// Rule 2: collect "holding H, acquires A" edges.
		if facts&acqMask == 0 {
			continue
		}
		for _, to := range lockClasses {
			if facts&to.AcqFact() == 0 {
				continue
			}
			for _, from := range lockClasses {
				// Every acquisition under a pin is already reported by
				// rule 1b; an edge out of the pin would report it again
				// as a cycle.
				if from == to || held[from] == 0 || from == summary.LockPin {
					continue
				}
				key := [2]summary.LockClass{from, to}
				if _, seen := edges[key]; seen {
					continue
				}
				edges[key] = lockEdge{
					from: from, to: to, fn: id, pos: s.Pos,
					chain: p.SiteWitness(s, to.AcqFact()),
				}
			}
		}
	}
}

// reportCycles finds every elementary cycle in the lock-class graph
// and reports each once, rotated to start at the smallest class so the
// report position is deterministic.
func reportCycles(p *summary.Program, edges map[[2]summary.LockClass]lockEdge, report func(analysis.Diagnostic)) {
	adj := map[summary.LockClass][]summary.LockClass{}
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for _, next := range adj {
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	}
	seen := map[string]bool{}
	var path []summary.LockClass
	onPath := map[summary.LockClass]bool{}
	var dfs func(at summary.LockClass)
	dfs = func(at summary.LockClass) {
		path = append(path, at)
		onPath[at] = true
		for _, to := range adj[at] {
			if !onPath[to] {
				dfs(to)
				continue
			}
			// Found a cycle: the path suffix from `to` to `at`, closed.
			start := 0
			for i, c := range path {
				if c == to {
					start = i
					break
				}
			}
			cycle := append([]summary.LockClass{}, path[start:]...)
			reportCycle(p, cycle, edges, seen, report)
		}
		path = path[:len(path)-1]
		onPath[at] = false
	}
	for _, c := range lockClasses {
		dfs(c)
	}
}

func reportCycle(p *summary.Program, cycle []summary.LockClass, edges map[[2]summary.LockClass]lockEdge, seen map[string]bool, report func(analysis.Diagnostic)) {
	// Canonicalize: rotate so the smallest class leads.
	min := 0
	for i, c := range cycle {
		if c < cycle[min] {
			min = i
		}
	}
	cycle = append(cycle[min:], cycle[:min]...)
	names := make([]string, 0, len(cycle)+1)
	for _, c := range cycle {
		names = append(names, c.String())
	}
	names = append(names, cycle[0].String())
	key := strings.Join(names, ">")
	if seen[key] {
		return
	}
	seen[key] = true

	var related []analysis.RelatedPos
	var parts []string
	for i, from := range cycle {
		to := cycle[(i+1)%len(cycle)]
		e := edges[[2]summary.LockClass{from, to}]
		related = append(related, analysis.RelatedPos{
			Pos: e.pos,
			Message: fmt.Sprintf("%s acquires the %s lock while holding the %s lock",
				callgraph.ShortName(e.fn), to, from),
		})
		// The edge's own call chain down to the acquire grounds the claim.
		related = append(related, e.chain...)
		pos := p.Fset.Position(e.pos)
		parts = append(parts, fmt.Sprintf("%s takes %s under %s (%s:%d)",
			callgraph.ShortName(e.fn), to, from, filepath.Base(pos.Filename), pos.Line))
	}
	first := edges[[2]summary.LockClass{cycle[0], cycle[1%len(cycle)]}]
	report(analysis.Diagnostic{
		Pos: first.pos,
		Message: fmt.Sprintf("lock-order cycle %s: %s",
			strings.Join(names, " -> "), strings.Join(parts, "; ")),
		Related: related,
	})
}
