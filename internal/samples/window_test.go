package samples

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestWindowedAgainstBatch is the core property: every bucket's
// mean/min/max/integral must agree with a batch recomputation over
// exactly the samples that fall in the bucket, and its P50 and P95 are
// those samples' exact quantiles, bit for bit, whether the buckets sort
// their values or count them on a grid.
func TestWindowedAgainstBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		n        = 50_000
		originNS = int64(1_000)
		widthNS  = int64(2_500_000_000) // 2.5 s ≈ 1250 samples: the documented P² regime
	)
	type sample struct {
		t int64
		v float64
		k uint32 // v's level, once snapped to the grid
	}
	var all []sample
	tcur := originNS
	for i := 0; i < n; i++ {
		tcur += int64(1_000_000 + rng.Intn(2_000_000)) // 1-3 ms cadence
		// Stationary noise: the documented P² bound assumes samples
		// arrive in an order uncorrelated with their rank (P² is
		// order-sensitive; a strongly trending series is outside its
		// envelope, as the package docs caveat).
		all = append(all, sample{t: tcur, v: 120 + rng.NormFloat64()*15})
	}

	// Off any grid, the buckets sort their values; snapped to the ADC's
	// 0.1 mA grid, they count levels.
	for _, grid := range []bool{false, true} {
		var levels *Levels
		if grid {
			levels = NewLevels(10, 60000)
			for i := range all {
				all[i].k = uint32(math.Round(all[i].v * 10))
				all[i].v = float64(all[i].k) / 10
			}
		}
		// Buckets start at 0: the windows see the times shifted so that
		// originNS is 0; on the grid they are fed the levels.
		wd := NewWindowed(widthNS, levels)
		for _, s := range all {
			if grid {
				wd.AddLevelRun([]int64{s.t - originNS}, []float64{s.v}, []uint32{s.k})
			} else {
				wd.Add(s.t-originNS, s.v)
			}
		}
		buckets := wd.Buckets()

		// Batch recomputation per bucket.
		byBucket := map[int64][]sample{}
		for _, s := range all {
			byBucket[(s.t-originNS)/widthNS] = append(byBucket[(s.t-originNS)/widthNS], s)
		}
		if len(buckets) != len(byBucket) {
			t.Fatalf("windowed produced %d buckets, batch grouping %d", len(buckets), len(byBucket))
		}
		relErr := func(a, b float64) float64 {
			if a == b {
				return 0
			}
			return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
		}
		for _, b := range buckets {
			k := b.StartNS / widthNS
			group := byBucket[k]
			if len(group) != b.N {
				t.Fatalf("bucket %d: N=%d, batch has %d samples", k, b.N, len(group))
			}
			var sum, minV, maxV float64
			minV, maxV = math.Inf(1), math.Inf(-1)
			var integ float64
			for i, s := range group {
				sum += s.v
				minV = math.Min(minV, s.v)
				maxV = math.Max(maxV, s.v)
				if i > 0 {
					dt := float64(s.t-group[i-1].t) / 1e9
					integ += dt * (s.v + group[i-1].v) / 2
				}
			}
			mean := sum / float64(len(group))
			if relErr(b.Mean, mean) > 1e-9 {
				t.Errorf("bucket %d mean: windowed %v batch %v", k, b.Mean, mean)
			}
			if b.Min != minV || b.Max != maxV {
				t.Errorf("bucket %d extremes: [%v,%v] vs [%v,%v]", k, b.Min, b.Max, minV, maxV)
			}
			if relErr(b.IntegralSeconds, integ) > 1e-9 {
				t.Errorf("bucket %d integral: windowed %v batch %v", k, b.IntegralSeconds, integ)
			}
			// Quantiles: exact, the order statistics of the bucket's values.
			vals := make([]float64, len(group))
			for i, s := range group {
				vals[i] = s.v
			}
			sort.Float64s(vals)
			for _, qc := range []struct{ p, got float64 }{{0.5, b.P50}, {0.95, b.P95}} {
				if exact := QuantileSorted(vals, qc.p); math.Float64bits(qc.got) != math.Float64bits(exact) {
					t.Errorf("bucket %d p%v: %v, exact %v", k, qc.p, qc.got, exact)
				}
			}
		}
	}
}

// TestWindowedBucketEdges pins boundary behavior: a sample exactly on
// a bucket boundary opens the next bucket, samples before 0 get
// negative buckets, and NaNs are counted but excluded.
func TestWindowedBucketEdges(t *testing.T) {
	wd := NewWindowed(100, nil)
	wd.Add(-50, 1) // bucket -1
	wd.Add(0, 2)   // bucket 0
	wd.Add(99, 4)  // bucket 0
	wd.Add(100, 8) // bucket 1, exactly on the boundary
	wd.Add(150, math.NaN())
	b := wd.Buckets()
	if len(b) != 3 {
		t.Fatalf("got %d buckets, want 3", len(b))
	}
	if b[0].StartNS != -100 || b[0].N != 1 || b[0].Mean != 1 {
		t.Fatalf("bucket -1 = %+v", b[0])
	}
	if b[1].StartNS != 0 || b[1].N != 2 || b[1].Mean != 3 {
		t.Fatalf("bucket 0 = %+v", b[1])
	}
	if b[2].StartNS != 100 || b[2].N != 1 || b[2].NaNs != 1 {
		t.Fatalf("bucket 1 = %+v", b[2])
	}

	// Buckets is a snapshot, not a drain: more adds to the open bucket
	// must show up in a second call.
	wd.Add(199, 10)
	b2 := wd.Buckets()
	if b2[2].N != 2 || b2[2].Mean != 9 {
		t.Fatalf("open bucket after second add = %+v", b2[2])
	}
	if b[2].N != 1 {
		t.Fatal("earlier snapshot mutated by later adds")
	}
}

// TestWindowedEmpty pins the zero-sample case.
func TestWindowedEmpty(t *testing.T) {
	wd := NewWindowed(1000, nil)
	if got := wd.Buckets(); len(got) != 0 {
		t.Fatalf("empty aggregator produced %d buckets", len(got))
	}
}
