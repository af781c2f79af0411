package accessserver

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// TestSectionsHaveOneExit is the rule leaveSection rests on, read off the
// package's own non-test source. Every effect of a scheduler section —
// the census and build statuses republished, campaign cells published or
// dropped, feeds closed or removed, failover events posted — happens at
// the exit and nowhere else, and after the exit's WAL write. Nothing
// reaches the store's append but walAppend, which only the exit and
// AttachStore's Users/Ledger hooks call. A drain pass runs after a
// section's exit or from the standalone callers named below, never by
// hand after an Unlock. And no function takes a record sink to thread
// through the transitions.
func TestSectionsHaveOneExit(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	exit := []string{"leaveSection"}
	// callers maps each call the rule names to the declared functions that
	// may make it (a closure counts as the function declaring it). A method
	// on the feed hub or the read plane is named with its receiver, as
	// ruledCall spells it.
	callers := map[string][]string{
		"publishCensusLocked": exit,
		"publishBuild":        exit,
		"publishCampaign":     exit,
		"removeBuild":         exit,
		"removeCampaign":      exit,
		"s.hub.Close":         exit,
		"s.hub.Remove":        exit,
		"s.reads.Store":       {"leaveSection", "publishCensusLocked"},
		// A relayed build's remote events are the peer's, posted by the
		// relay's sink (relaySink.Event) outside any section.
		"PostEvent":   {"leaveSection", "Event"},
		"Append":      {"walAppend"},
		"AppendBatch": {"walAppend"},
		"walAppend":   {"leaveSection", "AttachStore"},
		// A section asks for a drain pass with a mark, which Unlock runs;
		// these start one on their own: the scheduler tick, the announce
		// loop and handler, a registration, the CPU probe's goroutine, and
		// recovery, after its hooks and first compaction.
		"dispatch": {"Unlock", "Kick", "announceTick", "handlerCluster", "RegisterNode", "dispatch", "AttachStore"},
	}
	var walAt token.Pos
	var effectsAt []token.Pos
	for _, file := range pkgs["accessserver"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					call := ruledCall(n)
					allowed, ruled := callers[call]
					if !ruled {
						break
					}
					if !slices.Contains(allowed, fn.Name.Name) {
						t.Errorf("%s: %s calls %s, which only %v may", fset.Position(n.Pos()), fn.Name.Name, call, allowed)
					}
					if fn.Name.Name == "leaveSection" {
						if call == "walAppend" {
							walAt = n.Pos()
						} else {
							effectsAt = append(effectsAt, n.Pos())
						}
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
	if walAt == token.NoPos || len(effectsAt) == 0 {
		t.Fatalf("leaveSection makes no WAL write (%v) or shows nothing (%d calls)", walAt, len(effectsAt))
	}
	for _, at := range effectsAt {
		if at < walAt {
			t.Errorf("%s: leaveSection shows an effect before its WAL write at %s", fset.Position(at), fset.Position(walAt))
		}
	}
}

// ruledCall names the call TestSectionsHaveOneExit rules on: the method
// or function called, qualified with its receiver when that is the feed
// hub (s.hub.Close) or anything in the read plane (s.reads.Store for any
// of its atomics).
func ruledCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	on := exprPath(sel.X)
	switch {
	case on == "s.hub":
		return "s.hub." + sel.Sel.Name
	case strings.HasPrefix(on, "s.reads.") && sel.Sel.Name == "Store":
		return "s.reads.Store"
	}
	return sel.Sel.Name
}

// exprPath spells a chain of selectors ("s.reads.nodes"), "" for anything
// else.
func exprPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprPath(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
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

// durable returns a server on a virtual clock with a store attached in
// dir and node1 registered, its builds taking an hour of that clock.
func durable(t *testing.T, dir string, cfg Config) (*Server, *User, *store.Store) {
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

// TestOneSectionOneWrite: whatever one scheduler critical section logs
// reaches the WAL as one write, however many records it is — and the
// store then replays to the server's state.
func TestOneSectionOneWrite(t *testing.T) {
	const n = 4
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
		// The finished record and the charge for its hour of device time:
		// a crash keeps both or neither.
		{"finish with credits enforced", func(t *testing.T, dir string) (*Server, func() error) {
			srv, _, _ := durable(t, dir, Config{SnapshotEvery: 2 * time.Hour}) // no compaction cuts the log
			bob, _ := srv.Users.Add("bob", RoleExperimenter)
			srv.Ledger.Grant("bob", 100, "starter grant")
			srv.SetCreditEnforcement(true)
			b, err := srv.SubmitSpec(bob, testSpec("node1", "devA"))
			if err != nil {
				t.Fatal(err)
			}
			return srv, func() error {
				srv.clock.(*simclock.Virtual).Advance(time.Hour)
				if b.State() != StateSuccess || srv.Ledger.Balance("bob") != 40 {
					return fmt.Errorf("build %s, bob has %v credits: want success and 40", b.State(), srv.Ledger.Balance("bob"))
				}
				disk, err := store.Open(dir)
				if err != nil {
					return err
				}
				defer disk.Close()
				_, recs := disk.Load()
				if n := len(recs); n < 2 || recs[n-2].T != store.TBuildFinished || recs[n-1].T != store.TLedger || recs[n-1].Entry.User != "bob" {
					return fmt.Errorf("the log does not end in the finished record and bob's charge: %+v", recs[max(n-2, 0):])
				}
				return nil
			}
		}, 1, 2},
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

// TestShownIsWritten: a section shows nothing its WAL write has not
// taken. While the write of an Abort's section is held up, the aborted
// build still reads queued and its feed is open — a follower cannot take
// a clean end, nor a poller a terminal status, that a crash would undo —
// and both change once the write goes through.
func TestShownIsWritten(t *testing.T) {
	srv, admin, _ := durable(t, t.TempDir(), Config{})
	if _, err := srv.SubmitSpec(admin, testSpec("node1", "devA")); err != nil {
		t.Fatal(err)
	}
	b, err := srv.SubmitSpec(admin, testSpec("node1", "devA")) // waits for the first's lock
	if err != nil {
		t.Fatal(err)
	}
	shown := func() (string, bool) {
		st, _ := srv.reads.buildStatus(b.ID)
		return st.State, b.Feed().Closed()
	}
	if state, closed := shown(); state != "queued" || closed {
		t.Fatalf("before the abort: %s, feed closed %v", state, closed)
	}

	srv.storeMu.Lock() // the WAL write blocks
	aborted := make(chan error, 1)
	go func() { aborted <- srv.Abort(admin, b.ID) }()
	waitForStack(t, "accessserver.(*Server).walDo")
	state, closed := shown()
	srv.storeMu.Unlock()
	if state != "queued" || closed {
		t.Errorf("while the abort's WAL write waits: %s, feed closed %v; want queued and open", state, closed)
	}
	if err := <-aborted; err != nil {
		t.Fatal(err)
	}
	if state, closed := shown(); state != "aborted" || !closed {
		t.Errorf("after the write: %s, feed closed %v; want aborted and closed", state, closed)
	}
}

// waitForStack waits until some goroutine's stack names fn, failing the
// test after 5 s.
func waitForStack(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		if n := runtime.Stack(buf, true); bytes.Contains(buf[:n], []byte(fn)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine reached %s in 5 s", fn)
		}
		time.Sleep(100 * time.Microsecond)
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
