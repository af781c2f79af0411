package accessserver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// TestSectionsHaveOneExit is the rule leaveSection rests on, read off the
// package's own non-test source: the census is republished from nowhere
// but the exit, nothing reaches the store's append but walAppend — which
// only the exit and AttachStore's Users/Ledger hooks call — and no
// function takes a record sink to thread through the transitions.
func TestSectionsHaveOneExit(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// callers maps each function the rule names to the declared functions
	// that may call it (a closure counts as the function declaring it).
	callers := map[string][]string{
		"publishCensusLocked": {"leaveSection"},
		"Append":              {"walAppend"},
		"AppendBatch":         {"walAppend"},
		"walAppend":           {"leaveSection", "AttachStore"},
	}
	for _, file := range pkgs["accessserver"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					if allowed, ruled := callers[sel.Sel.Name]; ruled && !slices.Contains(allowed, fn.Name.Name) {
						t.Errorf("%s: %s calls %s, which only %v may", fset.Position(n.Pos()), fn.Name.Name, sel.Sel.Name, allowed)
					}
				case *ast.FuncType:
					for _, p := range n.Params.List {
						if isRecordSink(p.Type) {
							t.Errorf("%s: %s declares a *[]store.Record parameter: log with logStore, the section's exit writes", fset.Position(p.Pos()), fn.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
}

// isRecordSink reports whether e spells *[]store.Record.
func isRecordSink(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	arr, ok := star.X.(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return false
	}
	sel, ok := arr.Elt.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Record"
}

// walCounts reads the number of WAL writes (the count of
// blab_wal_append_seconds) and of records written (store.TotalAppends, as
// blab_wal_appends_total serves it).
func walCounts(srv *Server) (writes, records int64) {
	snap := srv.MetricsSnapshot()
	if mv, ok := snap.Get("blab_wal_append_seconds"); ok && mv.Hist != nil {
		writes = mv.Hist.Count
	}
	mv, _ := snap.Get("blab_wal_appends_total")
	return writes, int64(mv.Value)
}

// TestOneSectionOneWrite: whatever one scheduler critical section logs
// reaches the WAL as one write, however many records it is — and the
// store then replays to the server's state.
func TestOneSectionOneWrite(t *testing.T) {
	const n = 4
	// durable returns a server on a virtual clock with a store attached
	// and node1 registered, its builds never finishing on their own.
	durable := func(t *testing.T, dir string, cfg Config) (*Server, *User, *store.Store) {
		clk := simclock.NewVirtual()
		srv := New(clk, cfg)
		srv.SetSpecBackend(slowBackend(clk, time.Hour))
		if err := srv.Nodes.Register(staticNode{name: "node1"}); err != nil {
			t.Fatal(err)
		}
		admin, _ := srv.Users.Add("alice", RoleAdmin)
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.AttachStore(st); err != nil {
			t.Fatal(err)
		}
		return srv, admin, st
	}
	// oneRunningThenQueued submits n+1 builds of submit onto one device:
	// the first runs, n wait for its lock.
	oneRunningThenQueued := func(t *testing.T, submit func() (*Build, error)) {
		for i := 0; i <= n; i++ {
			if _, err := submit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		// setup returns the server to watch and the verb to run on it.
		setup           func(t *testing.T, dir string) (*Server, func() error)
		writes, records int64
	}{
		// n+1 queued records and the campaign's, then n started.
		{"campaign onto n free devices", func(t *testing.T, dir string) (*Server, func() error) {
			srv, admin, _ := durable(t, dir, Config{Executors: n})
			var cs api.CampaignSpec
			for i := 0; i < n; i++ {
				cs.Experiments = append(cs.Experiments, testSpec("node1", "dev"+string(rune('A'+i))))
			}
			return srv, func() error { _, _, err := srv.SubmitCampaign(admin, cs); return err }
		}, 2, 2*n + 1},
		{"RemoveNode with n queued builds", func(t *testing.T, dir string) (*Server, func() error) {
			srv, admin, _ := durable(t, dir, Config{})
			oneRunningThenQueued(t, func() (*Build, error) { return srv.SubmitSpec(admin, testSpec("node1", "devA")) })
			return srv, func() error { return srv.RemoveNode(admin, "node1") }
		}, 1, n + 1},
		{"DeleteJob with n queued builds", func(t *testing.T, dir string) (*Server, func() error) {
			srv, admin, _ := durable(t, dir, Config{})
			if _, err := srv.CreateJob(admin, "nightly", testSpec("node1", "devA")); err != nil {
				t.Fatal(err)
			}
			oneRunningThenQueued(t, func() (*Build, error) { return srv.Submit(admin, "nightly") })
			return srv, func() error { return srv.DeleteJob(admin, "nightly") }
		}, 1, n + 1},
		{"AttachStore over n running builds", func(t *testing.T, dir string) (*Server, func() error) {
			srv, admin, st := durable(t, dir, Config{Executors: n})
			for i := 0; i < n; i++ {
				if _, err := srv.SubmitSpec(admin, testSpec("node1", "dev"+string(rune('A'+i)))); err != nil {
					t.Fatal(err)
				}
			}
			if srv.Running() != n {
				t.Fatalf("%d builds running before the crash, want %d", srv.Running(), n)
			}
			st.Close() // the crash
			// The restarted server's node has not registered yet, so what
			// AttachStore writes is recovery's records and nothing a
			// dispatch adds.
			clk := simclock.NewVirtual()
			srv2 := New(clk, Config{Executors: n})
			srv2.SetSpecBackend(slowBackend(clk, time.Hour))
			return srv2, func() error {
				st2, err := store.Open(dir)
				if err != nil {
					return err
				}
				_, err = srv2.AttachStore(st2)
				return err
			}
		}, 1, n},
		{"Heartbeat of an online node", func(t *testing.T, dir string) (*Server, func() error) {
			srv, _, _ := durable(t, dir, Config{})
			if err := srv.MonitorNode("node1"); err != nil {
				t.Fatal(err)
			}
			return srv, func() error { srv.Heartbeat("node1"); return nil }
		}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, verb := tc.setup(t, t.TempDir())
			w0, r0 := walCounts(srv)
			if err := verb(); err != nil {
				t.Fatal(err)
			}
			w1, r1 := walCounts(srv)
			if w1-w0 != tc.writes || r1-r0 != tc.records {
				t.Errorf("%d WAL writes of %d records, want %d of %d", w1-w0, r1-r0, tc.writes, tc.records)
			}
			if err := srv.DurableDrift(); err != nil {
				t.Errorf("the store does not replay to the server: %v", err)
			}
		})
	}
}

// TestCronRunsOnRealClock polls CronRuns while a cron fires on the wall
// clock's timer goroutines: the run count is shared between them (-race).
func TestCronRunsOnRealClock(t *testing.T) {
	srv := New(simclock.Real(), Config{})
	stop := srv.Cron("tick", time.Millisecond, func() {})
	defer stop()
	deadline := time.Now().Add(10 * time.Second)
	for srv.CronRuns("tick") < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("cron fired %d times in 10 s, want 3", srv.CronRuns("tick"))
		}
		time.Sleep(100 * time.Microsecond)
	}
}
