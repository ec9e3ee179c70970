// Package simtime defines an analyzer that forbids wall-clock time in
// the deterministic simulation core. The discrete-event engine's whole
// value (cross-validating the fluid model, reproducible experiments)
// rests on every timestamp flowing through the sim clock; one stray
// time.Now() silently turns a deterministic run into a flaky one.
package simtime

import (
	"go/ast"
	"strings"

	"github.com/lmp-project/lmp/internal/analysis"
)

// GatedPackages are the import-path suffixes whose packages — test
// files included — must use simulated time exclusively.
var GatedPackages = []string{
	"internal/sim",
	"internal/memsim",
	"internal/fabric",
	"internal/chaos",
	"internal/model",
}

// banned is the set of time functions that read or wait on the wall
// clock. Pure data types (time.Duration, constants) stay allowed.
var banned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Since":     true,
	"Until":     true,
}

var bannedNames = func() []string {
	var names []string
	for n := range banned {
		names = append(names, n)
	}
	return names
}()

// Analyzer is the simtime analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "simtime",
	Doc: "forbid wall-clock time (time.Now, time.Sleep, timers) in the deterministic " +
		"simulation packages (internal/sim, internal/memsim, internal/fabric, " +
		"internal/chaos, internal/model); all timing there must flow through " +
		"the sim clock",
	Run: run,
}

func gatedPackage(pkgPath string) bool {
	for _, g := range GatedPackages {
		if pkgPath == g || strings.HasSuffix(pkgPath, "/"+g) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !gatedPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := analysis.PkgFuncCall(pass.TypesInfo, call, "time", bannedNames...); ok {
				pass.Reportf(call.Pos(), "time.%s reads the wall clock in simulated-time code; route all timing through the sim clock (sim.Engine)", name)
			}
			return true
		})
	}
	return nil
}
