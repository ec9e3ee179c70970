// Command lmplint runs the repository's custom analyzers — the
// mechanical form of the invariants DESIGN.md states in prose — over the
// packages matched by the given patterns (default ./...).
//
//	go run ./cmd/lmplint ./...
//	go run ./cmd/lmplint -json ./...
//
// Each analyzer runs on every loaded unit; lockorder's whole-program
// half (its lock graph and the transitive rules, over the lock facts of
// package summary) runs once over all units from the same single
// `go list -export` load. Diagnostics in files under a testdata
// directory are skipped — fixtures are analyzed by their own tests, not
// by the tree-wide lint.
//
// Exit status is 1 when any diagnostic is reported, 2 on a loading or
// internal error. A finding can be waived in place with a justified
// suppression directive on or directly above the offending line:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory; a bare directive does not suppress. A
// directive that suppresses nothing is itself a finding — stale waivers
// fail the lint instead of rotting in place.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"

	"github.com/lmp-project/lmp/internal/analysis"
	"github.com/lmp-project/lmp/internal/analysis/atomichygiene"
	"github.com/lmp-project/lmp/internal/analysis/ctxflow"
	"github.com/lmp-project/lmp/internal/analysis/loader"
	"github.com/lmp-project/lmp/internal/analysis/lockorder"
	"github.com/lmp-project/lmp/internal/analysis/sentinelerr"
	"github.com/lmp-project/lmp/internal/analysis/simtime"
	"github.com/lmp-project/lmp/internal/analysis/spanflow"
)

var analyzers = []*analysis.Analyzer{
	atomichygiene.Analyzer,
	ctxflow.Analyzer,
	lockorder.Analyzer,
	sentinelerr.Analyzer,
	simtime.Analyzer,
	spanflow.Analyzer,
}

// position is one resolved source location.
type position struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

func (p position) String() string { return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Column) }

// step is one entry of a finding's witness chain.
type step struct {
	Pos     position `json:"position"`
	Message string   `json:"message"`
}

// finding is one diagnostic in the driver's output shape, shared by the
// text and JSON renderers.
type finding struct {
	Analyzer string   `json:"analyzer"`
	Pos      position `json:"position"`
	Message  string   `json:"message"`
	Related  []step   `json:"related,omitempty"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lmplint [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	units, err := loader.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var findings []finding
	for _, a := range analyzers {
		for _, u := range units {
			diags, err := u.Run(a)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lmplint: %s on %s: %v\n", a.Name, u.PkgPath, err)
				os.Exit(2)
			}
			for _, d := range diags {
				findings = append(findings, toFinding(u.Fset, a.Name, d))
			}
		}
		if a.Program == nil {
			continue
		}
		diags, err := analysis.RunProgram(a, units)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmplint: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			findings = append(findings, toFinding(units[0].Fset, a.Name, d))
		}
	}

	// Every analyzer has run: a waiver that suppressed nothing is stale.
	for _, u := range units {
		for _, d := range u.Directives() {
			if d.Used() {
				continue
			}
			findings = append(findings, finding{
				Analyzer: "lmplint",
				Pos:      position{File: d.File, Line: d.Line, Column: 1},
				Message: fmt.Sprintf("unused //lint:ignore %s directive (suppresses nothing); remove it",
					strings.Join(d.Names, ",")),
			})
		}
	}

	// Fixture files are linted by their own analysistest runs, not here.
	kept := findings[:0]
	for _, f := range findings {
		if !underTestdata(f.Pos.File) {
			kept = append(kept, f)
		}
	}
	findings = kept

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos != b.Pos {
			if a.Pos.File != b.Pos.File {
				return a.Pos.File < b.Pos.File
			}
			if a.Pos.Line != b.Pos.Line {
				return a.Pos.Line < b.Pos.Line
			}
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "lmplint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
			for _, s := range f.Related {
				fmt.Printf("\t%s: %s\n", s.Pos, s.Message)
			}
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lmplint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func toFinding(fset *token.FileSet, name string, d analysis.Diagnostic) finding {
	f := finding{Analyzer: name, Pos: toPosition(fset, d.Pos), Message: d.Message}
	for _, r := range d.Related {
		f.Related = append(f.Related, step{Pos: toPosition(fset, r.Pos), Message: r.Message})
	}
	return f
}

func toPosition(fset *token.FileSet, pos token.Pos) position {
	p := fset.Position(pos)
	return position{File: p.Filename, Line: p.Line, Column: p.Column}
}

// underTestdata reports whether the file path has a testdata component.
func underTestdata(file string) bool {
	for _, part := range strings.Split(file, string(os.PathSeparator)) {
		if part == "testdata" {
			return true
		}
	}
	return false
}
