package archtest

import (
	"os"
	"path/filepath"
	"slices"
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
	{"one-record-codec", "internal/accessserver/store", oneRecordCodec},
	{"sections-have-one-exit", "internal/accessserver", sectionsHaveOneExit},
	{"one-clock-driver", "internal/core", oneClockDriver},
	{"frame-is-bytes", "internal/api", frameIsBytes},
	{"architecture-map", "README.md", architectureMap},
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

// holds checks the rule named name: the tree breaks it nowhere, and its
// fixture, joined to the package it targets, breaks it and no other — a
// rule the tree breaks already is broken by the fixture only where it
// finds something new.
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
	if err != nil || len(fixtures) != 1 {
		t.Fatalf("%s holds %d fixtures, want 1 (%v)", dir, len(fixtures), err)
	}
	bad, err := m.with(target, filepath.Join(dir, fixtures[0].Name()))
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
		t.Errorf("the fixture breaks %d rules, want %s alone:", len(tripped), name)
		for rule, found := range tripped {
			t.Errorf("  %s: %q", rule, found)
		}
	}
}

func TestOneBuildModel(t *testing.T)       { holds(t, "one-build-model") }
func TestOneBuildLifecycle(t *testing.T)   { holds(t, "one-build-lifecycle") }
func TestOneApply(t *testing.T)            { holds(t, "one-apply") }
func TestOneNodeTable(t *testing.T)        { holds(t, "one-node-table") }
func TestOneRecordCodec(t *testing.T)      { holds(t, "one-record-codec") }
func TestSectionsHaveOneExit(t *testing.T) { holds(t, "sections-have-one-exit") }
func TestOneClockDriver(t *testing.T)      { holds(t, "one-clock-driver") }
func TestFrameIsBytes(t *testing.T)        { holds(t, "frame-is-bytes") }
func TestArchitectureMap(t *testing.T)     { holds(t, "architecture-map") }
func TestReachable(t *testing.T)           { holds(t, "reachable") }
