// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver surface, built on the standard
// library only (go/ast, go/types). The repo's custom analyzers (lockorder,
// simtime, ctxflow, sentinelerr, atomichygiene) are written against this
// API and run by the cmd/lmplint multichecker; internal/analysis/loader
// loads and type-checks packages for the driver, and
// internal/analysis/analysistest runs analyzers over `// want`-annotated
// fixture packages.
//
// The shapes mirror x/tools on purpose: if the tree ever vendors
// golang.org/x/tools, the per-package analyzers port by changing one
// import path. The one addition is Analyzer.Program, a half that sees
// every unit at once (lockorder's lock graph).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:ignore <name> <reason>" suppression directives.
	Name string
	// Doc is the one-paragraph description shown by `lmplint -list`.
	Doc string
	// Run applies the analyzer to one package and reports findings
	// through pass.Report / pass.Reportf.
	Run func(*Pass) error
	// Program, when set, applies the analyzer's whole-program half once
	// to every loaded unit together (see RunProgram).
	Program func(units []*Unit, report func(Diagnostic)) error
}

// Diagnostic is one finding at a source position. Interprocedural
// analyzers attach the witness path — the call chain from the reported
// site to the operation that grounds the finding — as Related steps, in
// order from the reported site to the origin.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Related []RelatedPos
}

// RelatedPos is one step of a diagnostic's witness path.
type RelatedPos struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Filename returns the name of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	return p.Fset.Position(pos).Filename
}

// Unit is one loaded, type-checked package ready to be analyzed: the
// common currency between the loader, the driver, and analysistest.
type Unit struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	directives []*Directive
	suppress   map[string][]*Directive // "file:line" → directives covering that line
}

// Directive is one parsed //lint:ignore suppression. The driver tracks
// which directives actually suppressed a finding so stale waivers can be
// reported instead of silently rotting.
type Directive struct {
	Pos    token.Pos
	File   string
	Line   int // line the directive covers findings on (its own and the next)
	Names  []string
	Reason string
	used   bool
}

// Used reports whether the directive suppressed at least one finding.
func (d *Directive) Used() bool { return d.used }

// NewInfo returns a types.Info with every map analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Run applies a to the unit and returns its diagnostics, sorted by
// position, with suppressed findings removed. A "//lint:ignore
// <name>[,<name>] <reason>" comment suppresses the named analyzers on
// its own line and on the line directly below it; the reason is
// mandatory or the directive is inert.
func (u *Unit) Run(a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      u.Fset,
		Files:     u.Files,
		Pkg:       u.Types,
		TypesInfo: u.Info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, u.PkgPath, err)
	}
	kept := diags[:0]
	for _, d := range diags {
		if !u.Suppressed(d.Pos, a.Name) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// RunProgram applies a's whole-program half to units and returns its
// diagnostics sorted by position. Each diagnostic routes to the unit
// owning its file, whose //lint:ignore directives apply exactly as in
// Unit.Run.
func RunProgram(a *Analyzer, units []*Unit) ([]Diagnostic, error) {
	if len(units) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	if err := a.Program(units, func(d Diagnostic) { diags = append(diags, d) }); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	owner := make(map[string]*Unit)
	for _, u := range units {
		for _, f := range u.Files {
			owner[u.Fset.Position(f.Pos()).Filename] = u
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if u := owner[units[0].Fset.Position(d.Pos).Filename]; u != nil && u.Suppressed(d.Pos, a.Name) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// Suppressed reports whether a finding by the named analyzer at pos is
// covered by a //lint:ignore directive in this unit, marking the
// directive used.
func (u *Unit) Suppressed(pos token.Pos, name string) bool {
	u.parseDirectives()
	p := u.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
	for _, d := range u.suppress[key] {
		for _, n := range d.Names {
			if n == name {
				d.used = true
				return true
			}
		}
	}
	return false
}

// Directives returns the unit's parsed //lint:ignore directives.
func (u *Unit) Directives() []*Directive {
	u.parseDirectives()
	return u.directives
}

// parseDirectives indexes every lint:ignore directive by the file:line
// pairs it covers (its own line and the line directly below).
func (u *Unit) parseDirectives() {
	if u.suppress != nil {
		return
	}
	u.suppress = make(map[string][]*Directive)
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:ignore ") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore "))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // a reason is mandatory; bare directives are inert
				}
				pos := u.Fset.Position(c.Pos())
				d := &Directive{
					Pos:    c.Pos(),
					File:   pos.Filename,
					Line:   pos.Line,
					Names:  strings.Split(fields[0], ","),
					Reason: strings.Join(fields[1:], " "),
				}
				u.directives = append(u.directives, d)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					u.suppress[key] = append(u.suppress[key], d)
				}
			}
		}
	}
}

// PkgFuncCall resolves call's callee as a selector onto an imported
// package: it reports (funcName, true) when the callee is pkgPath.f for
// one of names (any function of the package when names is empty),
// following import aliases through the type information.
func PkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	if len(names) == 0 {
		return sel.Sel.Name, true
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return n, true
		}
	}
	return "", false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// IsErrorType reports whether t (or *t) implements the error interface.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}
