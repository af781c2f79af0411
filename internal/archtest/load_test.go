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
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// module is the repository as the rules read it: every package of the
// module and every test variant of one, type-checked from source in
// dependency order, the packages of benchmark/ — a module of its own that
// imports this one — and README.md.
type module struct {
	root, path string // directory and module path
	fset       *token.FileSet
	pkgs       []*pkg          // the module's packages, dependencies first
	bench      []*pkg          // benchmark/'s packages
	units      []*pkg          // every package checked: pkgs, their test variants and bench, dependencies first
	byPath     map[string]*pkg // every unit by its go list import path
	std        types.Importer  // export data of everything outside the two modules
	readme     string
}

// pkg is one package as go list reports it: a package of the module, a
// test variant of one, or a package of benchmark/. Every variant of a
// package shares its parsed files, so a function is declared at one
// position whichever variant declares it.
type pkg struct {
	id      string            // go list's import path: path, or "path [p.test]" for a test variant
	path    string            // import path
	forTest string            // for a test variant, the package whose test binary it is built for
	bench   bool              // a package of benchmark/
	files   []*ast.File       // non-test files
	tests   []*ast.File       // _test.go files
	imports map[string]string // import path in source → unit id, where they differ
	deps    []string          // the unit ids it imports
	types   *types.Package
	info    *types.Info
}

// listed is what go list reports of a package.
type listed struct {
	ImportPath, Dir, Export, ForTest string
	GoFiles, CgoFiles, Imports       []string
	ImportMap                        map[string]string
	Module                           *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// load reads the module rooted at root, its tests and benchmark/.
func load(root string) (*module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &module{root: root, fset: token.NewFileSet(), byPath: map[string]*pkg{}}
	exports := map[string]string{} // filled before any package that needs it
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	parsed := map[string]*ast.File{}
	for _, bench := range []bool{false, true} {
		dir, args := root, []string{"list", "-test", "-deps", "-export", "-json", "./..."}
		if bench {
			dir, args = filepath.Join(root, "benchmark"), slices.Delete(args, 1, 2)
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var l listed
			if err := dec.Decode(&l); err != nil {
				return nil, fmt.Errorf("go list: %v", err)
			}
			switch {
			case l.Error != nil:
				return nil, fmt.Errorf("go list: %s: %s", l.ImportPath, l.Error.Err)
			case l.Module == nil || !l.Module.Main:
				if m.byPath[l.ImportPath] == nil {
					exports[l.ImportPath] = l.Export
				}
				continue
			case l.ForTest == "" && strings.HasSuffix(l.ImportPath, ".test"):
				continue // a generated test main
			case len(l.CgoFiles) > 0:
				return nil, fmt.Errorf("%s: cgo files are not read", l.ImportPath)
			}
			if !bench {
				m.path = l.Module.Path
			}
			path, _, _ := strings.Cut(l.ImportPath, " ")
			p := &pkg{id: l.ImportPath, path: path, forTest: l.ForTest, bench: bench, imports: l.ImportMap, deps: l.Imports}
			for _, name := range l.GoFiles {
				name = filepath.Join(l.Dir, name)
				f := parsed[name]
				if f == nil {
					if f, err = parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution); err != nil {
						return nil, err
					}
					parsed[name] = f
				}
				if strings.HasSuffix(name, "_test.go") {
					p.tests = append(p.tests, f)
				} else {
					p.files = append(p.files, f)
				}
			}
			if err := m.check(p); err != nil {
				return nil, err
			}
			m.add(p)
		}
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	m.readme = string(readme)
	return m, err
}

// add files the checked unit p.
func (m *module) add(p *pkg) {
	m.units = append(m.units, p)
	m.byPath[p.id] = p
	switch {
	case p.bench:
		m.bench = append(m.bench, p)
	case p.forTest == "":
		m.pkgs = append(m.pkgs, p)
	}
}

// variants are the test variants that compile p's own tests: p with its
// package's _test.go files, and its external test package.
func (m *module) variants(p *pkg) []*pkg {
	var out []*pkg
	for _, u := range m.units {
		if u.forTest == p.path && len(u.tests) > 0 {
			out = append(out, u)
		}
	}
	return out
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks p, resolving its imports of the module to the units
// go list names for it; any error fails it.
func (m *module) check(p *pkg) error {
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if id := p.imports[path]; id != "" {
				path = id
			}
			if u := m.byPath[path]; u != nil {
				return u.types, nil
			}
			return m.std.Import(path)
		}),
		Error: func(err error) { errs = append(errs, err) },
	}
	p.types, _ = conf.Check(p.path, m.fset, append(slices.Clip(p.files), p.tests...), p.info)
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
	if m.byPath[target] == nil {
		return nil, fmt.Errorf("no package %s", target)
	}
	f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	test := strings.HasSuffix(path, "_test.go")
	// A non-test file joins the package and every variant that compiles
	// it; a test file joins the one variant of its package clause. Each
	// of those is checked again, and so is every unit that imports one,
	// directly or not, so that all of them name the same objects.
	cp.pkgs, cp.bench, cp.units, cp.byPath = nil, nil, nil, map[string]*pkg{}
	changed := map[string]bool{}
	for _, u := range m.units {
		joins := u.path == target && len(u.files) > 0
		if test {
			joins = u.forTest == target && u.types.Name() == f.Name.Name
		}
		if joins || slices.ContainsFunc(u.deps, func(id string) bool { return changed[id] }) {
			q := *u
			if joins && test {
				q.tests = append(slices.Clip(q.tests), f)
			} else if joins {
				q.files = append(slices.Clip(q.files), f)
			}
			if err := cp.check(&q); err != nil {
				return nil, err
			}
			changed[q.id] = true
			u = &q
		}
		cp.add(u)
	}
	return &cp, nil
}
