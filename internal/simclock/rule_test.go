package simclock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneClockDriver is the rule RunWhile and DriveWhile rest on, read
// off the module's source, tests included: no loop both reads a clock's
// NextDeadline and fires the clock (RunUntil, Step or Advance). Such a
// loop is a hand-written driver; RunWhile fires instant by instant for
// a caller that owns the timeline, DriveWhile steps for one that shares
// it. Reading NextDeadline to inspect the queue stays legal. Skipped:
// benchmark/, its own module, and this package, whose tests hold the
// drivers to exactly such loops. The fixture under testdata proves the
// rule still fires.
func TestOneClockDriver(t *testing.T) {
	root := filepath.Join("..", "..")
	skip := map[string]bool{
		filepath.Join(root, "benchmark"):            true,
		filepath.Join(root, "internal", "simclock"): true,
	}
	var found []string
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (skip[path] || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			files++
			found = append(found, handDrivers(t, path)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("read %d Go files: the walk did not cover the module", files)
	}
	for _, at := range found {
		t.Errorf("%s: a hand-written clock driver; use RunWhile or DriveWhile", at)
	}
	if got := handDrivers(t, filepath.Join("testdata", "driverrule", "loops.go")); len(got) != 1 {
		t.Errorf("the rule found %d drivers in the fixture, want its one: %v", len(got), got)
	}
}

// handDrivers lists the loops in the Go file at path that read a
// NextDeadline and fire a clock, outermost first and each once.
func handDrivers(t *testing.T, path string) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return true
		}
		reads, fires := false, false
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "NextDeadline":
						reads = true
					case "RunUntil", "Step", "Advance":
						fires = true
					}
				}
			}
			return true
		})
		if reads && fires {
			found = append(found, fset.Position(n.Pos()).String())
			return false
		}
		return true
	})
	return found
}
