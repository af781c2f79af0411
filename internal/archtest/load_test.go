package archtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// module is the repository as the rules read it: every package of the
// module, type-checked from source in dependency order, and README.md.
type module struct {
	root, path string // directory and module path
	fset       *token.FileSet
	pkgs       []*pkg // dependencies first
	byPath     map[string]*pkg
	std        types.Importer // export data of everything outside the module
	readme     string
}

// pkg is one package of the module.
type pkg struct {
	path  string
	files []*ast.File // non-test, type-checked
	tests []*ast.File // _test.go files, parsed only
	types *types.Package
	info  *types.Info
}

// listed is what go list reports of a package.
type listed struct {
	ImportPath, Dir, Export                      string
	GoFiles, CgoFiles, TestGoFiles, XTestGoFiles []string
	Module                                       *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// load reads the module rooted at root.
func load(root string) (*module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	m := &module{root: root, fset: token.NewFileSet(), byPath: map[string]*pkg{}}
	exports := map[string]string{} // filled before any package that needs it
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var l listed
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		switch {
		case l.Error != nil:
			return nil, fmt.Errorf("go list: %s: %s", l.ImportPath, l.Error.Err)
		case l.Module == nil || !l.Module.Main:
			exports[l.ImportPath] = l.Export
			continue
		case len(l.CgoFiles) > 0:
			return nil, fmt.Errorf("%s: cgo files are not read", l.ImportPath)
		}
		m.path = l.Module.Path
		p := &pkg{path: l.ImportPath}
		if p.files, err = m.parse(l.Dir, l.GoFiles); err != nil {
			return nil, err
		}
		if p.tests, err = m.parse(l.Dir, append(l.TestGoFiles, l.XTestGoFiles...)); err != nil {
			return nil, err
		}
		if err := m.check(p); err != nil {
			return nil, err
		}
		m.pkgs = append(m.pkgs, p)
		m.byPath[p.path] = p
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	m.readme = string(readme)
	return m, err
}

func (m *module) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, len(names))
	for i, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	return files, nil
}

// Import resolves a package of the module to its checked form and
// anything else to its export data.
func (m *module) Import(path string) (*types.Package, error) {
	if p := m.byPath[path]; p != nil {
		return p.types, nil
	}
	return m.std.Import(path)
}

// check type-checks p's non-test files; any error fails it.
func (m *module) check(p *pkg) error {
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{Importer: m, Error: func(err error) { errs = append(errs, err) }}
	p.types, _ = conf.Check(p.path, m.fset, p.files, p.info)
	return errors.Join(errs...)
}

// with returns m with the file at path joined to the package at target —
// as a test file when its name says so — or, for README.md, with the
// file's rows added to README's architecture map.
func (m *module) with(target, path string) (*module, error) {
	cp := *m
	if target == "README.md" {
		rows, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		_, end := mapTable(m.readme)
		cp.readme = m.readme[:end] + string(rows) + m.readme[end:]
		return &cp, nil
	}
	old := m.byPath[target]
	if old == nil {
		return nil, fmt.Errorf("no package %s", target)
	}
	f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	p := *old
	if strings.HasSuffix(path, "_test.go") {
		p.tests = append(slices.Clip(p.tests), f)
	} else {
		p.files = append(slices.Clip(p.files), f)
	}
	// The package is checked again, and so is every package that imports
	// it, directly or not, so that all of them name the same objects.
	cp.pkgs = slices.Clone(m.pkgs)
	cp.byPath = maps.Clone(m.byPath)
	changed := map[string]bool{}
	for i, q := range cp.pkgs {
		switch {
		case q == old:
			q = &p
		case slices.ContainsFunc(q.types.Imports(), func(imp *types.Package) bool { return changed[imp.Path()] }):
			q = &pkg{path: q.path, files: q.files, tests: q.tests}
		default:
			continue
		}
		if err := cp.check(q); err != nil {
			return nil, err
		}
		changed[q.path] = true
		cp.pkgs[i], cp.byPath[q.path] = q, q
	}
	return &cp, nil
}
