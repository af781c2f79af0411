package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// reachable: every function and method declared in a non-test file of the
// module is reached from a root. An edge is a call, a method value or any
// other reference, a generic instance standing for its origin. The roots:
//   - main and init of every package, and every package-level initialiser;
//   - the root package's exported functions, and the exported method sets
//     of its exported and aliased types;
//   - everything benchmark/ references;
//   - anything a test of a different package references: the simulated
//     hardware's observation surface;
//   - a method whose name and signature an interface of the module or of
//     its imports declares, and Is, As or Unwrap on an error type, which
//     package errors calls through interfaces it declares in its bodies.
//
// A function only its own package's tests reach, or nothing at all, breaks
// the rule: the finding says which, so that it is moved into a _test.go
// file or deleted. Functions are keyed by where they are declared, so a
// test variant's copy of a package names the functions the package does.
func reachable(r *report) {
	g := graphOf(r.m)
	reached := g.walk(nil, slices.Concat(g.roots, g.tests))
	testedBy := map[token.Pos][]string{}
	for p, from := range g.tested {
		for at := range g.walk(reached, from) {
			testedBy[at] = append(testedBy[at], strings.TrimPrefix(p.path, r.m.path+"/"))
		}
	}
	for at, d := range g.decls {
		if reached[at] {
			continue
		}
		why := "reached by nothing"
		if by := testedBy[at]; len(by) > 0 {
			slices.Sort(by)
			why = "reached only by tests of " + strings.Join(by, ", ")
		}
		pos := r.position(at)
		r.fail("%s:%d %s — %s", pos.Filename, pos.Line, funcName(d.p.types.Name(), d.decl), why)
	}
}

// graph is what references what among the functions and methods declared
// in the module's non-test files (decls, keyed by where they are
// declared), and where reaching starts: roots, every root but tests;
// tests, what a test of a different package references; tested, what
// each package's own tests reference.
type graph struct {
	decls        map[token.Pos]funcDecl
	edges        map[token.Pos][]token.Pos
	roots, tests []token.Pos
	tested       map[*pkg][]token.Pos
}

// graphOf reads m's graph; see reachable for the roots.
func graphOf(m *module) *graph {
	g := &graph{decls: map[token.Pos]funcDecl{}, edges: map[token.Pos][]token.Pos{}, tested: map[*pkg][]token.Pos{}}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok {
					g.decls[d.Name.Pos()] = funcDecl{p, d}
				}
			}
		}
	}
	// refs calls visit with each function of the module n references.
	refs := func(info *types.Info, n ast.Node, visit func(token.Pos)) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if f, ok := info.Uses[id].(*types.Func); ok {
					if _, ok := g.decls[f.Origin().Pos()]; ok {
						visit(f.Origin().Pos())
					}
				}
			}
			return true
		})
	}
	root := func(at token.Pos) { g.roots = append(g.roots, at) }
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						root(d.Name.Pos())
					}
					refs(p.info, d, func(to token.Pos) { g.edges[d.Name.Pos()] = append(g.edges[d.Name.Pos()], to) })
				case *ast.GenDecl:
					refs(p.info, d, root)
				}
			}
		}
		for _, v := range m.variants(p) {
			for _, f := range v.tests {
				refs(v.info, f, func(to token.Pos) {
					if g.decls[to].p == p {
						g.tested[p] = append(g.tested[p], to)
					} else {
						g.tests = append(g.tests, to)
					}
				})
			}
		}
	}
	for _, p := range m.bench {
		for _, f := range p.files {
			refs(p.info, f, root)
		}
	}
	if api := m.byPath[m.path]; api != nil {
		for _, name := range api.types.Scope().Names() {
			obj := api.types.Scope().Lookup(name)
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Exported() {
					root(obj.Pos())
				}
			case *types.TypeName:
				if !obj.Exported() {
					continue
				}
				for sel := range types.NewMethodSet(types.NewPointer(obj.Type())).Methods() {
					if sel.Obj().Exported() {
						root(sel.Obj().(*types.Func).Origin().Pos())
					}
				}
			}
		}
	}
	methods := interfaceMethods(m)
	for at, d := range g.decls {
		f := d.p.info.Defs[d.decl.Name].(*types.Func)
		if dynamic(methods, f) {
			root(at)
		}
	}
	return g
}

// walk returns what from reaches that reached (nil for nothing) does not
// hold already.
func (g *graph) walk(reached map[token.Pos]bool, from []token.Pos) map[token.Pos]bool {
	marked := map[token.Pos]bool{}
	from = slices.Clone(from)
	for len(from) > 0 {
		at := from[len(from)-1]
		from = from[:len(from)-1]
		if !marked[at] && !reached[at] {
			marked[at] = true
			from = append(from, g.edges[at]...)
		}
	}
	return marked
}

// funcName is pkg.Func or pkg.Type.Method.
func funcName(pkg string, d *ast.FuncDecl) string {
	if d.Recv == nil {
		return pkg + "." + d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return fmt.Sprintf("%s.%s.%s", pkg, t.(*ast.Ident).Name, d.Name.Name)
}

// funcDecl is a function or method declared in a non-test file.
type funcDecl struct {
	p    *pkg
	decl *ast.FuncDecl
}

// interfaceMethods are the signatures of the methods an interface
// declares — an interface of the module's non-test code, of benchmark/,
// or of a package either imports — by name.
func interfaceMethods(m *module) map[string][]types.Type {
	out := map[string][]types.Type{}
	seen := map[*types.Func]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for f := range it.Methods() {
				if !seen[f] {
					seen[f] = true
					out[f.Name()] = append(out[f.Name()], f.Type())
				}
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var imported func(p *types.Package)
	imported = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			imported(imp)
		}
	}
	for _, p := range slices.Concat(m.pkgs, m.bench) {
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		for _, imp := range p.types.Imports() {
			imported(imp)
		}
	}
	return out
}

// dynamic reports whether something may call the method f through an
// interface: one of methods has its name and signature, or it is Is, As or
// Unwrap on an error type.
func dynamic(methods map[string][]types.Type, f *types.Func) bool {
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if slices.ContainsFunc(methods[f.Name()], func(t types.Type) bool { return types.Identical(t, sig) }) {
		return true
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	recv := derefed(sig.Recv().Type())
	return (f.Name() == "Is" || f.Name() == "As" || f.Name() == "Unwrap") &&
		(types.Implements(recv, errType) || types.Implements(types.NewPointer(recv), errType))
}
