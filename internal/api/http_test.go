package api

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFrameIsBytes is the rule stream.go rests on, read off the
// package's own non-test source: nothing here builds a trace.Series. A
// frame goes between bytes and points through the codec's column
// functions; a Series — its chunked store and streaming summary — is
// what no frame consumer reads. The rule names what yields a Series by
// reading the trace package: the type, and every function whose results
// include one. The fixture under testdata proves the rule still fires,
// through an import alias.
func TestFrameIsBytes(t *testing.T) {
	makers := seriesMakers(t)
	if !makers["NewSeries"] || !makers["DecodeBinary"] {
		t.Fatalf("read %v as trace's Series makers; NewSeries and DecodeBinary are missing", makers)
	}
	for _, bad := range seriesUses(t, ".", makers) {
		t.Errorf("%s: internal/api builds a trace.Series; a frame is bytes", bad)
	}
	if bad := seriesUses(t, filepath.Join("testdata", "framerule"), makers); len(bad) != 1 {
		t.Errorf("the rule found %d violations in the fixture, want its one: %v", len(bad), bad)
	}
}

// parseDir parses the non-test Go files of dir.
func parseDir(t *testing.T, fset *token.FileSet, dir string) map[string]*ast.Package {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// seriesMakers reads the trace package for the names that yield a
// Series: the type itself and each function returning one.
func seriesMakers(t *testing.T) map[string]bool {
	makers := map[string]bool{"Series": true}
	for _, pkg := range parseDir(t, token.NewFileSet(), filepath.Join("..", "trace")) {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || fn.Type.Results == nil {
					continue
				}
				for _, res := range fn.Type.Results.List {
					typ := res.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok && id.Name == "Series" {
						makers[fn.Name.Name] = true
					}
				}
			}
		}
	}
	return makers
}

// seriesUses lists where dir's non-test files select a Series maker
// from the trace package, under whatever name they import it.
func seriesUses(t *testing.T, dir string, makers map[string]bool) []string {
	fset := token.NewFileSet()
	var uses []string
	for _, pkg := range parseDir(t, fset, dir) {
		for _, file := range pkg.Files {
			local := ""
			for _, imp := range file.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "batterylab/internal/trace" {
					local = "trace"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && makers[sel.Sel.Name] {
						uses = append(uses, fset.Position(sel.Pos()).String()+": "+local+"."+sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	return uses
}
