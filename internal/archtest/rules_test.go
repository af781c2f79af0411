package archtest

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// rule reads the module and reports where it is broken.
type rule func(r *report)

// report collects one rule's findings on one module.
type report struct {
	m     *module
	found []string
}

func (r *report) at(pos token.Pos, format string, args ...any) {
	r.found = append(r.found, r.position(pos).String()+": "+fmt.Sprintf(format, args...))
}

// position is pos with its file named relative to the module root.
func (r *report) position(pos token.Pos) token.Position {
	p := r.m.fset.Position(pos)
	if rel, err := filepath.Rel(r.m.root, p.Filename); err == nil {
		p.Filename = rel
	}
	return p
}

func (r *report) fail(format string, args ...any) {
	r.found = append(r.found, fmt.Sprintf(format, args...))
}

// pkg resolves a package of the module by its path under the module root.
func (r *report) pkg(rel string) *pkg {
	p := r.m.byPath[r.m.path+"/"+rel]
	if p == nil {
		r.fail("no package %s", rel)
		return &pkg{info: &types.Info{}}
	}
	return p
}

// object resolves name in the package at path — a module path under the
// module root, or a standard one: "Name" in the package scope, or
// "Type.Member", a field or method of Type. The rule fails when the tree
// no longer has it.
func (r *report) object(path, name string) types.Object {
	var scope *types.Package
	if p := r.m.byPath[r.m.path+"/"+path]; p != nil {
		scope = p.types
	} else if std, err := r.m.std.Import(path); err == nil {
		scope = std
	}
	var obj types.Object
	if scope != nil {
		typ, member, _ := strings.Cut(name, ".")
		if obj = scope.Scope().Lookup(typ); obj != nil && member != "" {
			obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, scope, member)
		}
	}
	if obj == nil {
		r.fail("%s.%s no longer exists: the rule must name what replaced it", path, name)
	}
	return obj
}

// objects resolves each of names in the package at path, leaving out
// (and failing the rule on) any the tree no longer has.
func (r *report) objects(path string, names ...string) []types.Object {
	var objs []types.Object
	for _, name := range names {
		if obj := r.object(path, name); obj != nil {
			objs = append(objs, obj)
		}
	}
	return objs
}

// value is the constant value of the constant name in the package at path.
func (r *report) value(path, name string) constant.Value {
	if c, ok := r.object(path, name).(*types.Const); ok {
		return c.Val()
	}
	return constant.MakeUnknown()
}

// uses resolves id to the object it refers to, a generic function's or
// method's origin for an instance of one.
func uses(info *types.Info, id *ast.Ident) types.Object {
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return info.Uses[id]
}

// called is the function or method call calls, nil for anything else.
func called(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return uses(info, fun)
	case *ast.SelectorExpr:
		return uses(info, fun.Sel)
	}
	return nil
}

// selects reports whether e selects the field or method obj.
func selects(info *types.Info, e ast.Expr, obj types.Object) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && obj != nil && info.Selections[sel] != nil && info.Selections[sel].Obj() == obj
}

// isConst reports whether e is a constant of type typ whose value is one
// of vals.
func isConst(info *types.Info, e ast.Expr, typ types.Object, vals ...constant.Value) bool {
	tv := info.Types[ast.Unparen(e)]
	return tv.Value != nil && typ != nil && types.Identical(tv.Type, typ.Type()) &&
		slices.ContainsFunc(vals, func(v constant.Value) bool { return constant.Compare(tv.Value, token.EQL, v) })
}

// declared reports every function, method, variable or field of p
// declared under one of names.
func (r *report) declared(p *pkg, names ...string) {
	for id, obj := range p.info.Defs {
		if obj != nil && slices.Contains(names, id.Name) {
			r.at(id.Pos(), "%s is gone for good", id.Name)
		}
	}
}

// inFile reports whether n lies in the file of p named name.
func (r *report) inFile(n ast.Node, name string) bool {
	return filepath.Base(r.m.fset.Position(n.Pos()).Filename) == name
}

const (
	accessserver = "internal/accessserver"
	store        = "internal/accessserver/store"
	feedhub      = "internal/accessserver/feedhub"
)

// oneBuildModel: one console, /api/v1/. No route under /api/ but /api/v1/
// is registered on an http.ServeMux anywhere in the module — the pattern
// read as the constant it is, a named one too — and nothing brings back
// the closure jobs (pipelineLocked) or a second runnable model
// (Runnable). The device-mirroring GUI of internal/mirror serves its own
// /api/ under the controller's /gui/ prefix and is not the console.
func oneBuildModel(r *report) {
	register := r.objects("net/http", "ServeMux.Handle", "ServeMux.HandleFunc", "Handle", "HandleFunc")
	if len(r.found) > 0 {
		return
	}
	for _, p := range r.m.pkgs {
		r.declared(p, "pipelineLocked", "Runnable")
		if p.path == r.m.path+"/internal/mirror" {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !slices.Contains(register, called(p.info, call)) || len(call.Args) == 0 {
					return true
				}
				tv := p.info.Types[call.Args[0]]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					r.at(call.Pos(), "a route that is not a constant")
					return true
				}
				pattern := constant.StringVal(tv.Value)
				path := pattern[max(strings.Index(pattern, "/"), 0):]
				api := path == "/api" || strings.HasPrefix(path, "/api/")
				v1 := path == "/api/v1" || strings.HasPrefix(path, "/api/v1/")
				if api && !v1 {
					r.at(call.Pos(), "route %q is outside /api/v1/", pattern)
				}
				return true
			})
		}
	}
}

// oneBuildLifecycle: each build transition is written once, in
// lifecycle.go. Nowhere else in accessserver is a terminal BuildState
// assigned (settleLocked names it in the finished record), a lock
// released from Server.locks, a failover event made, or a
// TBuildFailover or TBuildFinished record built; and one statement —
// applyBuild's case for the finished record — writes a record's State
// into a BuildRec.
func oneBuildLifecycle(r *report) {
	p := r.pkg(accessserver)
	state := r.object(accessserver, "BuildState")
	stateString := r.object(accessserver, "BuildState.String")
	terminal := []constant.Value{r.value(accessserver, "StateSuccess"), r.value(accessserver, "StateFailure"), r.value(accessserver, "StateAborted")}
	locks := r.object(accessserver, "Server.locks")
	failover := r.object("internal/api", "EventFailover")
	recType, recT := r.object(store, "Type"), r.object(store, "Record.T")
	settled := []constant.Value{r.value(store, "TBuildFailover"), r.value(store, "TBuildFinished")}
	recState, buildState := r.object(store, "Record.State"), r.object(store, "BuildRec.State")
	if len(r.found) > 0 {
		return // the rule names something the tree no longer has
	}
	r.declared(p, "failoverLocked", "terminateLocked", "checkPeerLease")

	// isTerminal sees a terminal state through String and conversions.
	var isTerminal func(e ast.Expr) bool
	isTerminal = func(e ast.Expr) bool {
		if isConst(p.info, e, state, terminal...) {
			return true
		}
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		switch {
		case !ok:
			return false
		case called(p.info, call) == stateString:
			return isTerminal(call.Fun.(*ast.SelectorExpr).X)
		case len(call.Args) == 1 && p.info.Types[call.Fun].IsType():
			return isTerminal(call.Args[0])
		}
		return false
	}
	var writes []ast.Node
	for _, f := range p.files {
		lifecycle := r.inFile(f, "lifecycle.go")
		assigned := func(to, v ast.Expr) {
			if selects(p.info, to, buildState) && selects(p.info, v, recState) {
				writes = append(writes, v)
			}
			if lifecycle {
				return
			}
			if isTerminal(v) {
				r.at(v.Pos(), "a terminal BuildState assigned outside lifecycle.go")
			}
			if (selects(p.info, to, recT) || uses(p.info, ident(to)) == recT) && isConst(p.info, v, recType, settled...) {
				r.at(v.Pos(), "a %s record built outside lifecycle.go", constant.StringVal(p.info.Types[v].Value))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GenDecl:
				return n.Tok != token.CONST // the states' own declarations
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						assigned(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i := range n.Values {
					assigned(n.Names[i], n.Values[i])
				}
			case *ast.KeyValueExpr:
				assigned(n.Key, n.Value)
			case *ast.CallExpr:
				if b, ok := p.info.Uses[ident(n.Fun)].(*types.Builtin); ok && b.Name() == "delete" && !lifecycle && selects(p.info, n.Args[0], locks) {
					r.at(n.Pos(), "a lock released from Server.locks outside lifecycle.go")
				}
			case *ast.Ident:
				if !lifecycle && p.info.Uses[n] == failover {
					r.at(n.Pos(), "api.EventFailover outside lifecycle.go")
				}
			}
			return true
		})
	}
	if len(writes) != 1 {
		for _, w := range writes {
			r.at(w.Pos(), "a record's State written into a BuildRec")
		}
		r.fail("%d statements write a record's State into a BuildRec, want applyBuild's one", len(writes))
	}
}

// ident is e as an identifier, nil if it is none.
func ident(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// oneApply: a build's and a node's durable fields change through applyBuild
// and applyNode, in persist.go, alone. Elsewhere in accessserver nothing
// assigns, increments or op-assigns a field of store.BuildRec or
// store.NodeRec, or a whole one — through any receiver, promoted field or
// pointer. store.Record's own fields are the records being built, and
// stay writable.
func oneApply(r *report) {
	p := r.pkg(accessserver)
	recs := r.objects(store, "BuildRec", "NodeRec")
	if len(r.found) > 0 {
		return
	}
	r.declared(p, "parseState")
	durable := map[types.Object]bool{}
	for _, rec := range recs {
		st := rec.Type().Underlying().(*types.Struct)
		for i := range st.NumFields() {
			durable[st.Field(i)] = true
		}
	}
	isRec := func(e ast.Expr) bool {
		t := p.info.TypeOf(e)
		return t != nil && slices.ContainsFunc(recs, func(rec types.Object) bool { return types.Identical(t, rec.Type()) })
	}
	// written reports a write to e if it lands in a durable record.
	written := func(e ast.Expr) {
		for e != nil {
			if isRec(e) {
				r.at(e.Pos(), "a whole %s written outside persist.go", p.info.TypeOf(e))
				return
			}
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if sel := p.info.Selections[x]; sel != nil && durable[sel.Obj()] {
					r.at(x.Sel.Pos(), "durable field %s written outside persist.go", sel.Obj().Name())
					return
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				e = nil
			}
		}
	}
	for _, f := range p.files {
		if r.inFile(f, "persist.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						written(lhs)
					}
				}
			case *ast.IncDecStmt:
				written(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					written(n.Key)
					written(n.Value)
				}
			}
			return true
		})
	}
}

// oneNodeTable: the scheduler reads its own node records and the read
// plane routes the census; only node.go, which is the Nodes view, selects
// Server.Nodes, whatever the receiver is called (New assigning the view
// aside). No second registry (reviveLocked, the census generation) comes
// back.
func oneNodeTable(r *report) {
	p := r.pkg(accessserver)
	nodes := r.object(accessserver, "Server.Nodes")
	if len(r.found) > 0 {
		return
	}
	r.declared(p, "reviveLocked", "censusGen", "censusStale", "generation")
	for _, f := range p.files {
		if r.inFile(f, "node.go") {
			continue
		}
		view := map[ast.Expr]bool{} // the view assigned, not asked
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					view[lhs] = true
				}
			case *ast.SelectorExpr:
				if selects(p.info, n, nodes) && !view[n] {
					r.at(n.Sel.Pos(), "Server.Nodes selected outside node.go")
				}
			}
			return true
		})
	}
}

// oneRecordCodec: a WAL message's layout is written once, in store's
// codec. Nothing in store marshals a store.Record with encoding/json (the
// old write fork), declares an encode… or decode… function of one
// message type — a struct a Record carries, directly or nested — or
// imports reflect or unsafe.
func oneRecordCodec(r *report) {
	p := r.pkg(store)
	rec := r.object(store, "Record")
	marshal := r.objects("encoding/json", "Marshal", "MarshalIndent", "Encoder.Encode")
	if len(r.found) > 0 {
		return
	}
	messages := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if st, ok := t.Underlying().(*types.Struct); ok && !messages[t] {
				messages[t] = true
				for i := range st.NumFields() {
					walk(st.Field(i).Type())
				}
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Map:
			walk(t.Elem())
		}
	}
	walk(rec.Type())
	delete(messages, rec.Type())
	isMessage := func(tuple *types.Tuple) bool {
		for v := range tuple.Variables() {
			t := v.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if messages[t] {
				return true
			}
		}
		return false
	}
	for _, f := range p.files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"reflect"` || imp.Path.Value == `"unsafe"` {
				r.at(imp.Pos(), "store imports %s", imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if slices.Contains(marshal, called(p.info, n)) && len(n.Args) > 0 {
					if t := p.info.TypeOf(n.Args[0]); types.Identical(t, rec.Type()) || types.Identical(t, types.NewPointer(rec.Type())) {
						r.at(n.Pos(), "a store.Record marshaled as JSON")
					}
				}
			case *ast.FuncDecl:
				sig := p.info.Defs[n.Name].Type().(*types.Signature)
				name := strings.ToLower(n.Name.Name)
				if (strings.HasPrefix(name, "encode") || strings.HasPrefix(name, "decode")) && (isMessage(sig.Params()) || isMessage(sig.Results())) {
					r.at(n.Pos(), "%s codes one message type: the codec writes each layout once", n.Name.Name)
				}
			}
			return true
		})
	}
}

// sectionsHaveOneExit: every effect of a scheduler section — census and
// build statuses republished, campaign cells published or dropped, feeds
// closed or removed, failover events posted — happens in leaveSection and
// after its WAL write. Nothing reaches the store's appends but walAppend,
// which only leaveSection calls. A drain pass runs after a section's exit
// or from the standalone callers named below, never by hand after an
// Unlock. No function takes a *[]store.Record to thread through the
// transitions. A closure counts as the function declaring it.
func sectionsHaveOneExit(r *report) {
	p := r.pkg(accessserver)
	fn := func(name string) types.Object { return r.object(accessserver, name) }
	exit, wal := fn("Server.leaveSection"), fn("Server.walAppend")
	publishCensus, newReads := fn("Server.publishCensusLocked"), fn("newReadPlane")
	callers := map[types.Object][]types.Object{
		publishCensus:                        {exit},
		fn("readPlane.publishBuild"):         {exit},
		fn("readPlane.publishCampaign"):      {exit},
		fn("readPlane.removeBuild"):          {exit},
		fn("readPlane.removeCampaign"):       {exit},
		r.object(feedhub, "Hub.Close"):       {exit},
		r.object(feedhub, "Hub.Remove"):      {exit},
		r.object(store, "Store.AppendBatch"): {wal},
		wal:                                  {exit},
		// A relayed build's remote events are the peer's, posted by the
		// relay's sink outside any section.
		r.object(feedhub, "Feed.PostEvent"): {exit, fn("relaySink.Event")},
		// A section asks for a drain pass with a mark, which Unlock runs;
		// these start one on their own: the scheduler tick, the announce
		// loop and handler, a registration, the CPU probe's goroutine, and
		// recovery, after its first compaction.
		fn("Server.dispatch"): {fn("schedMutex.Unlock"), fn("Server.Kick"), fn("Server.announceTick"),
			fn("Server.handlerCluster"), fn("Server.RegisterNode"), fn("Server.dispatch"), fn("Server.AttachStore")},
	}
	readPlane, rec := r.object(accessserver, "readPlane"), r.object(store, "Record")
	if len(r.found) > 0 {
		return
	}
	// The read plane's atomics are stored by the census publish and the
	// exit, and set up by its constructor.
	storesReads := func(sel *ast.SelectorExpr) bool {
		f, ok := uses(p.info, sel.Sel).(*types.Func)
		if !ok || f.Name() != "Store" || f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" {
			return false
		}
		on, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || p.info.Selections[on] == nil {
			return false
		}
		return types.Identical(derefed(p.info.Selections[on].Recv()), readPlane.Type())
	}
	recordSink := types.NewPointer(types.NewSlice(rec.Type()))
	var walAt token.Pos
	var effects []token.Pos
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			caller := p.info.Defs[fd.Name]
			ast.Inspect(fd, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if storesReads(n) {
						if caller != exit && caller != publishCensus && caller != newReads {
							r.at(n.Pos(), "%s stores the read plane, which only the exit and the census publish may", fd.Name.Name)
						}
						if caller == exit {
							effects = append(effects, n.Pos())
						}
					}
				case *ast.Ident:
					obj := uses(p.info, n)
					allowed, ruled := callers[obj]
					if !ruled {
						break
					}
					if !slices.Contains(allowed, caller) {
						r.at(n.Pos(), "%s uses %s, which only %s may", fd.Name.Name, obj.Name(), names(allowed))
					}
					if caller == exit && obj == wal {
						walAt = n.Pos()
					} else if caller == exit {
						effects = append(effects, n.Pos())
					}
				case *ast.FuncType:
					for _, field := range n.Params.List {
						if types.Identical(p.info.TypeOf(field.Type), recordSink) {
							r.at(field.Pos(), "%s takes a *[]store.Record: log with logStore, the section's exit writes", fd.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
	if walAt == token.NoPos || len(effects) == 0 {
		r.fail("leaveSection makes no WAL write or shows nothing (%d effects)", len(effects))
	}
	for _, at := range effects {
		if at < walAt {
			r.at(at, "leaveSection shows an effect before its WAL write")
		}
	}
}

func derefed(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

func names(objs []types.Object) string {
	out := make([]string, len(objs))
	for i, obj := range objs {
		out[i] = obj.Name()
	}
	return strings.Join(out, ", ")
}

// oneClockDriver: no loop both reads a simclock.Virtual's NextDeadline and
// fires the clock (RunUntil, Step or Advance). Such a loop is a
// hand-written driver; RunWhile fires instant by instant for a caller that
// owns the timeline, DriveWhile steps for one that shares it. Reading
// NextDeadline to inspect the queue stays legal. Test files count;
// simclock, whose tests hold the drivers to exactly such loops, is
// skipped.
func oneClockDriver(r *report) {
	reads := r.object("internal/simclock", "Virtual.NextDeadline")
	fires := r.objects("internal/simclock", "Virtual.RunUntil", "Virtual.Step", "Virtual.Advance")
	if len(r.found) > 0 {
		return
	}
	typed := func(info *types.Info) func(*ast.CallExpr) (bool, bool) {
		return func(call *ast.CallExpr) (bool, bool) {
			f := called(info, call)
			return f == reads, slices.Contains(fires, f)
		}
	}
	for _, p := range r.m.pkgs {
		if p.path == r.m.path+"/internal/simclock" {
			continue
		}
		for _, f := range p.files {
			r.driverLoops(f, typed(p.info))
		}
		for _, v := range r.m.variants(p) {
			for _, f := range v.tests {
				r.driverLoops(f, typed(v.info))
			}
		}
	}
}

// driverLoops reports the loops in f that read a deadline and fire the
// clock, as classify tells a call, outermost first and each once.
func (r *report) driverLoops(f *ast.File, classify func(*ast.CallExpr) (reads, fires bool)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return true
		}
		reads, fires := false, false
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				rd, fi := classify(call)
				reads, fires = reads || rd, fires || fi
			}
			return true
		})
		if reads && fires {
			r.at(n.Pos(), "a hand-written clock driver; use RunWhile or DriveWhile")
			return false
		}
		return true
	})
}

// frameIsBytes: a frame goes between bytes and points through the codec's
// column functions; a trace.Series — its chunked store and streaming
// summary — is what no frame consumer reads. internal/api's non-test code
// uses no object whose type is, or returns, a Series.
func frameIsBytes(r *report) {
	p := r.pkg("internal/api")
	series := r.object("internal/trace", "Series")
	if len(r.found) > 0 {
		return
	}
	isSeries := func(t types.Type) bool { return types.Identical(derefed(t), series.Type()) }
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.info.Uses[id]
			if obj == nil {
				obj = p.info.Defs[id]
			}
			if obj == nil {
				return true
			}
			yields := isSeries(obj.Type())
			if sig, ok := obj.Type().(*types.Signature); ok {
				for v := range sig.Results().Variables() {
					yields = yields || isSeries(v.Type())
				}
			}
			if yields {
				r.at(id.Pos(), "%s is or yields a trace.Series; a frame is bytes", id.Name)
			}
			return true
		})
	}
}

// mapHeading opens README's package table.
const mapHeading = "## Architecture map (`internal/`)"

// mapTable is the byte range of the rows of README's package table.
func mapTable(readme string) (start, end int) {
	at := strings.Index(readme, mapHeading)
	if at < 0 {
		return 0, 0
	}
	sep := strings.Index(readme[at:], "|---|")
	if sep < 0 {
		return 0, 0
	}
	start = at + sep + strings.Index(readme[at+sep:], "\n") + 1
	end = start
	for end < len(readme) && readme[end] == '|' {
		end += strings.Index(readme[end:], "\n") + 1
	}
	return start, end
}

var backticked = regexp.MustCompile("`([^`]+)`")

// architectureMap: README's package table has exactly one row for every
// directory under internal/ that holds non-test Go files, and every
// package a row names (in backticks, in its first cell) exists.
func architectureMap(r *report) {
	start, end := mapTable(r.m.readme)
	if start == end {
		r.fail("README.md has no %q table", mapHeading)
		return
	}
	line := strings.Count(r.m.readme[:start], "\n") + 1
	rows := map[string][]int{}
	for i, row := range strings.Split(strings.TrimSuffix(r.m.readme[start:end], "\n"), "\n") {
		first, _, _ := strings.Cut(strings.TrimPrefix(row, "|"), "|")
		for _, name := range backticked.FindAllStringSubmatch(first, -1) {
			rows[name[1]] = append(rows[name[1]], line+i)
		}
	}
	internal := r.m.path + "/internal/"
	for _, p := range r.m.pkgs {
		name, ok := strings.CutPrefix(p.path, internal)
		if !ok || len(p.files) == 0 {
			continue
		}
		if n := len(rows[name]); n != 1 {
			r.fail("README.md: internal/%s has %d rows in the architecture map, want 1 (lines %v)", name, n, rows[name])
		}
	}
	for name, lines := range rows {
		if r.m.byPath[internal+name] == nil {
			r.fail("README.md:%d: the architecture map names internal/%s, which is no package", lines[0], name)
		}
	}
}
