package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFlagsAreDocumented parses main.go and fails when a flag it defines
// is missing from the package comment's usage block or from README's
// flag tables, or when the usage block still names a flag that is gone.
func TestFlagsAreDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			defined[name] = true
		}
		return true
	})
	if len(defined) < 40 {
		t.Fatalf("found %d flag definitions in main.go: has the flag block moved?", len(defined))
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	usage := f.Doc.Text()
	names := make([]string, 0, len(defined))
	for name := range defined {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(usage, "[-"+name+" ") && !strings.Contains(usage, "[-"+name+"]") {
			t.Errorf("-%s is missing from the usage block of the package comment", name)
		}
		if !strings.Contains(string(readme), "\n| `-"+name+"` |") {
			t.Errorf("-%s has no row in README's potluckd flag tables", name)
		}
	}
	for _, m := range regexp.MustCompile(`\[-([a-z0-9-]+)`).FindAllStringSubmatch(usage, -1) {
		if !defined[m[1]] {
			t.Errorf("the usage block documents -%s, which main.go does not define", m[1])
		}
	}
}

// nonTestGoFiles lists the non-test Go files of the root package,
// internal/ and cmd/.
func nonTestGoFiles(t *testing.T) []string {
	t.Helper()
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	out := files[:0]
	for _, path := range files {
		if !strings.HasSuffix(path, "_test.go") {
			out = append(out, path)
		}
	}
	return out
}

// TestNoGobOutsideTests keeps PLKSNP01 (internal/store) the only encoding
// of cache state: no non-test file of the root package, internal/ or
// cmd/ may import encoding/gob.
func TestNoGobOutsideTests(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range nonTestGoFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob", fset.Position(imp.Pos()))
			}
		}
	}
}

// TestNoEventRingOutsideTests keeps the span recorder the one record of
// what the cache decided: no non-test file may name the retired event
// ring — RecordEvent, NewTracer, Tracer, telemetry.Event or an Event*
// kind, whether declared inside package telemetry or selected from it.
func TestNoEventRingOutsideTests(t *testing.T) {
	retired := map[string]bool{"RecordEvent": true, "NewTracer": true, "Tracer": true}
	fset := token.NewFileSet()
	for _, path := range nonTestGoFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		inTelemetry := f.Name.Name == "telemetry"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "telemetry" && strings.HasPrefix(n.Sel.Name, "Event") {
					t.Errorf("%s names telemetry.%s", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.Ident:
				if retired[n.Name] || (inTelemetry && strings.HasPrefix(n.Name, "Event")) {
					t.Errorf("%s names %s", fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
	}
}
