package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// encode is the canonical byte form of the inputs.
func (in *Inputs) encode() []byte {
	data, err := json.Marshal(in)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return data
}

// The same seed must yield byte-identical inputs, a different seed must
// not, and the amount of work must not depend on the seed at all.
func TestInputsDeterministic(t *testing.T) {
	a, b := generate(2019, frozenSizes), generate(2019, frozenSizes)
	if !bytes.Equal(a.encode(), b.encode()) {
		t.Fatal("the same seed generated different inputs")
	}
	c := generate(7, frozenSizes)
	if bytes.Equal(a.encode(), c.encode()) {
		t.Fatal("seeds 2019 and 7 generated identical inputs")
	}
	for _, pair := range [][2]*FleetInputs{
		{&a.Backlog, &c.Backlog}, {&a.Dashboard.Fleet, &c.Dashboard.Fleet}, {&a.Restart, &c.Restart},
	} {
		x, y := pair[0], pair[1]
		if x.Builds() != y.Builds() || len(x.Aborts) != len(y.Aborts) || len(x.Campaigns) != len(y.Campaigns) {
			t.Errorf("work differs by seed: %d/%d/%d builds/aborts/campaigns vs %d/%d/%d",
				x.Builds(), len(x.Aborts), len(x.Campaigns), y.Builds(), len(y.Aborts), len(y.Campaigns))
		}
	}
	kinds := func(in *Inputs) map[string]int {
		m := map[string]int{}
		for _, r := range in.Dashboard.Reads {
			m[r.Kind]++
		}
		return m
	}
	ka, kc := kinds(a), kinds(c)
	for k, n := range ka {
		if kc[k] != n {
			t.Errorf("read mix differs by seed: %d vs %d %s reads", n, kc[k], k)
		}
	}
	if got := a.Backlog.Builds(); got != frozenSizes.BacklogCampaigns*frozenSizes.CampaignSize {
		t.Errorf("backlog has %d builds, want %d", got, frozenSizes.BacklogCampaigns*frozenSizes.CampaignSize)
	}
}

// Aborts must name builds of the queued tail, each once.
func TestAbortsAreInTheTail(t *testing.T) {
	f := generate(3, frozenSizes).Backlog
	seen := map[int]bool{}
	for _, pos := range f.Aborts {
		if pos < f.Builds()/2 || pos >= f.Builds() || seen[pos] {
			t.Fatalf("abort position %d is outside the tail or repeated", pos)
		}
		seen[pos] = true
	}
	if want := f.Builds() * frozenSizes.AbortPct / 100; len(f.Aborts) != want {
		t.Fatalf("%d aborts, want %d", len(f.Aborts), want)
	}
}

// The seed drives the generator only: the files that run workloads must
// not mention it (the measure workload's deployment seed arrives inside
// the generated inputs).
func TestWorkloadsNeverSeeTheSeed(t *testing.T) {
	word := regexp.MustCompile(`\bseed\b`)
	for _, file := range []string{"backlog.go", "dashboard.go", "measure.go", "restart.go", "harness.go", "spans.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if loc := word.FindIndex(src); loc != nil {
			line := 1 + bytes.Count(src[:loc[0]], []byte("\n"))
			t.Errorf("%s:%d mentions the seed; workloads may only read generated inputs", file, line)
		}
	}
}
