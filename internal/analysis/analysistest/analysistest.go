// Package analysistest runs an analyzer over fixture packages under a
// testdata directory and checks its diagnostics against `// want "re"`
// annotations, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library only.
//
// Layout: testdata/src/<pkg>/*.go, one directory per fixture package;
// the directory path below src is the package's import path, so a
// fixture can exercise path-gated analyzers (e.g. src/internal/sim).
// A `// want "re1" "re2"` comment expects one diagnostic per quoted
// regexp on its line; lines without a want expect no diagnostics.
// Suppression directives (//lint:ignore) are honored exactly as in the
// driver, so fixtures can assert them too.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/lmp-project/lmp/internal/analysis"
)

// Run loads each fixture package in order (later fixtures may import
// earlier ones), applies a, and reports mismatches against the // want
// annotations through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	local := make(map[string]*types.Package)
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(pkg))
		files, err := parseDir(fset, dir)
		if err != nil {
			t.Fatalf("fixture %s: %v", pkg, err)
		}
		unit, err := typeCheck(fset, pkg, files, local)
		if err != nil {
			t.Fatalf("fixture %s: %v", pkg, err)
		}
		local[pkg] = unit.Types
		diags, err := unit.Run(a)
		if err != nil {
			t.Fatalf("fixture %s: running %s: %v", pkg, a.Name, err)
		}
		checkWants(t, fset, files, diags)
	}
}

// RunProgram loads all fixture packages together (in order; later
// fixtures may import earlier ones), applies a's whole-program half to
// them, and checks its diagnostics —
// which may land in any fixture file — against the combined // want
// annotations. Witness chains are carried on the diagnostics' Related
// steps; want regexps match the main message only.
func RunProgram(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	local := make(map[string]*types.Package)
	var units []*analysis.Unit
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(pkg))
		files, err := parseDir(fset, dir)
		if err != nil {
			t.Fatalf("fixture %s: %v", pkg, err)
		}
		unit, err := typeCheck(fset, pkg, files, local)
		if err != nil {
			t.Fatalf("fixture %s: %v", pkg, err)
		}
		local[pkg] = unit.Types
		units = append(units, unit)
		allFiles = append(allFiles, files...)
	}
	diags, err := analysis.RunProgram(a, units)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	checkWants(t, fset, allFiles, diags)
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

func typeCheck(fset *token.FileSet, pkgPath string, files []*ast.File, local map[string]*types.Package) (*analysis.Unit, error) {
	var need []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if _, ok := local[path]; !ok {
				need = append(need, path)
			}
		}
	}
	exports, err := exportData(need)
	if err != nil {
		return nil, err
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	var terrs []string
	conf := types.Config{
		Importer: &localFirst{local: local, gc: gc},
		Error: func(err error) {
			if len(terrs) < 10 {
				terrs = append(terrs, err.Error())
			}
		},
	}
	info := analysis.NewInfo()
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("fixture does not type-check:\n  %s", strings.Join(terrs, "\n  "))
	}
	return &analysis.Unit{PkgPath: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

type localFirst struct {
	local map[string]*types.Package
	gc    types.Importer
}

func (i *localFirst) Import(path string) (*types.Package, error) {
	if p, ok := i.local[path]; ok {
		return p, nil
	}
	return i.gc.Import(path)
}

func (i *localFirst) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return i.Import(path)
}

var (
	exportMu    sync.Mutex
	exportCache = make(map[string]string)
)

// exportData maps each import path (plus its transitive dependencies) to
// a compiled export-data file, via `go list -export`. Results are cached
// for the test process.
func exportData(paths []string) (map[string]string, error) {
	exportMu.Lock()
	defer exportMu.Unlock()
	var missing []string
	for _, p := range paths {
		if _, ok := exportCache[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, missing...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Export != "" {
				exportCache[p.ImportPath] = p.Export
			}
		}
	}
	out := make(map[string]string, len(exportCache))
	for k, v := range exportCache {
		out[k] = v
	}
	return out, nil
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var quoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") && text != "want" {
					continue
				}
				pos := fset.Position(c.Pos())
				qs := quoted.FindAllString(text, -1)
				if len(qs) == 0 {
					t.Errorf("%s: malformed want comment (no quoted regexps)", pos)
					continue
				}
				for _, q := range qs {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: bad want string %s: %v", pos, q, err)
						continue
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, s, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}
