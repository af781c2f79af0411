package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("%d/100 identical draws across different seeds", same)
	}
}

func TestForkStable(t *testing.T) {
	a := New(7).Fork("cpu")
	b := New(7).Fork("cpu")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("forked streams with same label diverged")
		}
	}
}

func TestForkIndependentLabels(t *testing.T) {
	parent := New(7)
	a := parent.Fork("cpu")
	b := parent.Fork("net")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("%d/100 identical draws across labels", same)
	}
}

func TestForkDoesNotConsumeParent(t *testing.T) {
	a := New(9)
	first := a.Float64()
	b := New(9)
	b.Fork("x")
	if got := b.Float64(); got != first {
		t.Fatalf("Fork consumed parent state: %v != %v", got, first)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(1)
	if err := quick.Check(func(seed uint64) bool {
		x := r.Uniform(5, 10)
		return x >= 5 && x < 10
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal(10, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("mean = %v, want ~10", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("std = %v, want ~2", std)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		x := r.TruncNormal(0.5, 1.0, 0, 1)
		if x < 0 || x > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", x)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if x := r.LogNormal(0, 1); x <= 0 {
			t.Fatalf("LogNormal non-positive: %v", x)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(6)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~3", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(8)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

func TestJitterBounds(t *testing.T) {
	r := New(10)
	for i := 0; i < 1000; i++ {
		x := r.Jitter(100, 0.1)
		if x < 90 || x >= 110 {
			t.Fatalf("Jitter out of bounds: %v", x)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestIntNRange(t *testing.T) {
	r := New(12)
	for i := 0; i < 1000; i++ {
		if v := r.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN(7) = %d", v)
		}
	}
}

// AtInto must hand out exactly At's stream, whatever the scratch stream
// was used for before.
func TestAtIntoMatchesAt(t *testing.T) {
	parent := New(2019).Fork("monsoon/HV0001")
	scratch := New(0)
	f := func(label string, epoch int64, dirty uint8) bool {
		for i := 0; i < int(dirty); i++ { // leave the scratch mid-stream
			scratch.Normal(0, 1)
		}
		parent.AtInto(scratch, label, epoch)
		want := parent.At(label, epoch)
		if scratch.Seed() != want.Seed() {
			return false
		}
		for i := 0; i < 4; i++ {
			if scratch.Normal(0, 1.2) != want.Normal(0, 1.2) || scratch.Float64() != want.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The label hash is 64-bit FNV-1a: derived seeds must stay what hash/fnv
// gave when Fork and At used it, or every recorded trace changes.
func TestDerivedSeedsMatchFNV(t *testing.T) {
	f := func(seed uint64, label string, epoch int64) bool {
		h := fnv.New64a()
		h.Write([]byte(label))
		fork := splitmix(seed ^ h.Sum64())
		var le [8]byte
		binary.LittleEndian.PutUint64(le[:], uint64(epoch))
		h.Write(le[:])
		at := splitmix(seed ^ h.Sum64())
		r := New(seed)
		return r.Fork(label).Seed() == fork && r.At(label, epoch).Seed() == at
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAtIntoDoesNotAllocate(t *testing.T) {
	parent, scratch := New(7), New(0)
	epoch := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		epoch++
		parent.AtInto(scratch, "adc", epoch)
		scratch.Normal(0, 1.2)
	}); n != 0 {
		t.Fatalf("AtInto + draw allocates %v times", n)
	}
}

// Draws and accessors only the tests use.

// Seed reports the seed this stream was created with.
func (r *RNG) Seed() uint64 { return r.seed }

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform draw in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponential draw with the given mean (not rate).
func (r *RNG) Exp(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }
