package archtest

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var tree struct {
	once sync.Once
	m    *module
	err  error
}

// loaded is the repository, read once per test binary. A failed go list
// or type-check fails the test.
func loaded(t *testing.T) *module {
	t.Helper()
	tree.once.Do(func() { tree.m, tree.err = load(filepath.Join("..", "..")) })
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.m
}

// rules are the architecture rules by name, which is also the directory
// of each one's fixture under testdata; target is the package (or file)
// the fixture joins.
var rules = []struct {
	name, target string
	check        rule
}{
	{"one-build-model", "internal/accessserver", oneBuildModel},
	{"one-build-lifecycle", "internal/accessserver", oneBuildLifecycle},
	{"one-apply", "internal/accessserver", oneApply},
	{"one-node-table", "internal/accessserver", oneNodeTable},
	{"one-build-index", "internal/accessserver", oneBuildIndex},
	{"one-feed-reader", "internal/core", oneFeedReader},
	{"p2-only-in-metrics", "internal/trace", p2OnlyInMetrics},
	{"one-record-codec", "internal/accessserver/store", oneRecordCodec},
	{"sections-have-one-exit", "internal/accessserver", sectionsHaveOneExit},
	{"sched-is-pure", "internal/accessserver/sched", schedIsPure},
	{"one-clock-driver", "internal/core", oneClockDriver},
	{"frame-is-bytes", "internal/api", frameIsBytes},
	{"one-run-handle", "internal/remote", oneRunHandle},
	{"architecture-map", "README.md", architectureMap},
	{"route-table", "internal/accessserver", routeTable},
	{"reachable", "internal/stats", reachable},
}

// broken runs every rule on m and returns the findings of each that m
// breaks.
func broken(m *module) map[string][]string {
	out := map[string][]string{}
	for _, rl := range rules {
		r := &report{m: m}
		rl.check(r)
		if len(r.found) > 0 {
			slices.Sort(r.found)
			out[rl.name] = r.found
		}
	}
	return out
}

// holds checks the rule named name: the tree breaks it nowhere, and each
// of its fixtures, joined to the tree, breaks it and no other — a rule
// the tree breaks already is broken by a fixture only where it finds
// something new. A fixture is a file under testdata/<name>/, joined to
// the package the rule targets, or a directory there whose files are
// joined together, each to the package of the module its path under the
// directory names (non-test files first, so tests can name what they add).
func holds(t *testing.T, name string) {
	m := loaded(t)
	before := broken(m)
	for _, f := range before[name] {
		t.Error(f)
	}
	target := ""
	for _, rl := range rules {
		if rl.name == name {
			target = rl.target
		}
	}
	if target != "README.md" {
		target = m.path + "/" + target
	}
	dir := filepath.Join("testdata", name)
	fixtures, err := os.ReadDir(dir)
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("%s holds no fixture (%v)", dir, err)
	}
	for _, fixture := range fixtures {
		path := filepath.Join(dir, fixture.Name())
		bad := m
		if !fixture.IsDir() {
			bad, err = m.with(target, path)
		} else {
			var files []string
			err = filepath.WalkDir(path, func(file string, d os.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					files = append(files, file)
				}
				return err
			})
			slices.SortStableFunc(files, func(a, b string) int {
				return strings.Count(a, "_test.go") - strings.Count(b, "_test.go")
			})
			for _, file := range files {
				if err != nil {
					break
				}
				rel, _ := filepath.Rel(path, filepath.Dir(file))
				bad, err = bad.with(m.path+"/"+filepath.ToSlash(rel), file)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		tripped := map[string][]string{}
		for rule, found := range broken(bad) {
			found = slices.DeleteFunc(found, func(f string) bool { return slices.Contains(before[rule], f) })
			if len(found) > 0 {
				tripped[rule] = found
			}
		}
		if len(tripped[name]) == 0 || len(tripped) != 1 {
			t.Errorf("fixture %s breaks %d rules, want %s alone:", fixture.Name(), len(tripped), name)
			for rule, found := range tripped {
				t.Errorf("  %s: %q", rule, found)
			}
		}
	}
}

func TestOneBuildModel(t *testing.T)       { holds(t, "one-build-model") }
func TestOneBuildLifecycle(t *testing.T)   { holds(t, "one-build-lifecycle") }
func TestOneApply(t *testing.T)            { holds(t, "one-apply") }
func TestOneNodeTable(t *testing.T)        { holds(t, "one-node-table") }
func TestOneBuildIndex(t *testing.T)       { holds(t, "one-build-index") }
func TestOneFeedReader(t *testing.T)       { holds(t, "one-feed-reader") }
func TestP2OnlyInMetrics(t *testing.T)     { holds(t, "p2-only-in-metrics") }
func TestOneRecordCodec(t *testing.T)      { holds(t, "one-record-codec") }
func TestSectionsHaveOneExit(t *testing.T) { holds(t, "sections-have-one-exit") }
func TestSchedIsPure(t *testing.T)         { holds(t, "sched-is-pure") }
func TestOneClockDriver(t *testing.T)      { holds(t, "one-clock-driver") }
func TestFrameIsBytes(t *testing.T)        { holds(t, "frame-is-bytes") }
func TestOneRunHandle(t *testing.T)        { holds(t, "one-run-handle") }
func TestArchitectureMap(t *testing.T)     { holds(t, "architecture-map") }
func TestRouteTable(t *testing.T)          { holds(t, "route-table") }
func TestReachable(t *testing.T)           { holds(t, "reachable") }
