package trace

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"batterylab/internal/samples"
)

// FuzzLevelStore holds a grid series, which stores levels and steady
// offsets as a step, to a plain series of floats fed the same samples:
// level runs appended whole, cut in two or a level at a time, cut
// anywhere, and float runs (some with a value off the grid in them),
// which the grid series must refuse, storing none of the run, and which
// the float store is not fed. Bit for bit, at every read and at the end:
//   - the offsets and values that Chunks and Iter give;
//   - Live;
//   - the version 3 bytes, equal to what the float store wrote of the
//     same samples (on the grid, through appendChunkRef, the reference
//     chunk body);
//   - DecodeBinary of those bytes, which stores levels as levels, and its
//     bytes again.
func FuzzLevelStore(f *testing.F) {
	f.Add([]byte{0, 200, 1, 3, 4, 90, 0, 7}, uint16(1))
	f.Add([]byte{0, 255, 16, 10, 0, 255, 48, 2, 2, 40, 3, 1, 0, 255}, uint16(1))
	f.Add([]byte{2, 30, 0, 60, 34, 5, 3, 9, 1, 100}, uint16(40))
	f.Add([]byte{3, 1, 3, 2, 7, 3, 0, 1, 19, 4, 3, 0}, uint16(6))
	f.Add([]byte{0, 255, 0, 255, 0, 255, 0, 255, 1, 255}, uint16(1))
	f.Fuzz(func(t *testing.T, ops []byte, sel uint16) {
		const maxLen = 4*samples.ChunkLen + 300
		top := 60000
		if sel&1 == 0 {
			top = 1 + int(sel>>1)%4000
		}
		grid, plain := NewGridSeries("current", "mA", 10, top), NewSeries("current", "mA")
		at, step := t0, 200*time.Microsecond
		r := uint64(sel) | 1
		next := func() uint64 { // xorshift: the run's levels
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			return r
		}
		offGrid := []float64{0.15, math.NaN(), math.Copysign(0, -1), float64(top+1) / 10, math.Inf(1), -0.1}
		levels := func(at time.Time, ks []uint32) {
			if err := grid.AppendLevels(at, step, ks); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i+1 < len(ops) && grid.Len() < maxLen; i += 2 {
			op, arg := ops[i], ops[i+1]
			n := min(1+int(arg)*21, maxLen-grid.Len())
			was, wasStep := at, step
			switch op >> 2 & 3 { // where the run starts: on the step, or off it
			case 1:
				at = at.Add(7)
			case 2:
				at = at.Add(-step) // at the previous sample's instant
			case 3:
				at = at.Add(time.Second)
			}
			if op>>4&1 == 1 {
				step = time.Duration(op>>5) * 100 * time.Microsecond
			}
			ks := make([]uint32, n)
			vs := make([]float64, n)
			for j := range ks {
				ks[j] = uint32(next() % uint64(top+1))
				vs[j] = float64(ks[j]) / 10
			}
			switch op & 3 {
			case 0:
				levels(at, ks)
			case 1: // refused, and not fed to the float store either
				if arg&1 == 1 {
					vs[int(arg)%n] = offGrid[int(arg)%len(offGrid)]
				}
				if err := grid.AppendRun(at, step, vs); err == nil {
					t.Fatalf("a grid series took a run of %d floats", n)
				}
				at, step, vs = was, wasStep, nil
			case 2: // cut in two
				cut := int(arg) % n
				levels(at, ks[:cut])
				levels(at.Add(time.Duration(cut)*step), ks[cut:])
			case 3:
				for j := range ks {
					levels(at.Add(time.Duration(j)*step), ks[j:j+1])
				}
			}
			if err := plain.AppendRun(at, step, vs); err != nil {
				t.Fatal(err)
			}
			at = at.Add(time.Duration(len(vs)) * step)
			if op&0x80 != 0 {
				checkLiveSame(t, grid, plain)
			}
		}

		checkColumnsSame(t, grid, plain)
		checkLiveSame(t, grid, plain)
		raw := v3Bytes(t, grid)
		if want := floatStoreV3(plain, 10, top); !bytes.Equal(raw, want) {
			t.Fatalf("version 3: %d bytes, the float store's %d, or they differ", len(raw), len(want))
		}
		d, err := DecodeBinary(raw)
		if err != nil {
			t.Fatal(err)
		}
		checkColumnsSame(t, d, plain)
		checkLiveSame(t, d, plain)
		for _, s := range []*Series{grid, d} {
			s.Samples().Stored(0, func(c samples.Chunk) bool {
				if c.K == nil {
					t.Fatalf("a chunk of %d floats in a grid series", c.Len())
				}
				return true
			})
		}
		if again := v3Bytes(t, d); !bytes.Equal(again, raw) {
			t.Fatalf("encode(decode(b)) differs from b: %d bytes, %d", len(again), len(raw))
		}
	})
}

// checkColumnsSame requires got's Chunks and Iter to give want's offsets
// and values, bit for bit, in the same chunks.
func checkColumnsSame(t *testing.T, got, want *Series) {
	t.Helper()
	// cols lists each chunk's length, then its offsets and value bits.
	cols := func(s *Series) []int64 {
		var out []int64
		s.data.Chunks(0, func(t []int64, v []float64) bool {
			out = append(append(out, int64(len(t))), t...)
			for _, x := range v {
				out = append(out, int64(math.Float64bits(x)))
			}
			return true
		})
		return out
	}
	if g, w := cols(got), cols(want); !got.epoch.Equal(want.epoch) || !slices.Equal(g, w) {
		t.Fatalf("Chunks of %d samples differ from those of %d", got.Len(), want.Len())
	}
	iter := func(s *Series) []int64 {
		var out []int64
		s.Iter(func(smp Sample) bool {
			out = append(out, smp.T.UnixNano(), int64(math.Float64bits(smp.V)))
			return true
		})
		return out
	}
	if g, w := iter(got), iter(want); !slices.Equal(g, w) {
		t.Fatalf("Iter over %d samples differs from that over %d", got.Len(), want.Len())
	}
}

// checkLiveSame requires got's Live to equal want's, bit for bit.
func checkLiveSame(t *testing.T, got, want *Series) {
	t.Helper()
	if g, w := got.Live(), want.Live(); !sameBits(g, w) {
		t.Fatalf("after %d samples: Live %+v, want %+v", got.Len(), g, w)
	}
}

func v3Bytes(t *testing.T, s *Series) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// levelOf returns v's level on the grid k/scale, 0 ≤ k ≤ max, and
// whether v lies on it: float64(k)/scale == v, k within [0, max], and v
// not −0, which float64(0)/scale would give back as +0. NaN, ±Inf and
// negative values are off it.
func levelOf(v float64, scale, max int) (uint32, bool) {
	k := int(v*float64(scale) + 0.5)
	return uint32(k), uint(k) <= uint(max) && float64(k)/float64(scale) == v && !(k == 0 && math.Signbit(v))
}

// levelsOf returns the levels of vs on the grid k/scale, 0 ≤ k ≤ max. It
// panics on a value off the grid.
func levelsOf(vs []float64, scale, max int) []uint32 {
	ks := make([]uint32, len(vs))
	for i, v := range vs {
		k, ok := levelOf(v, scale, max)
		if !ok {
			panic(fmt.Sprintf("%v is off the grid k/%d, 0 ≤ k ≤ %d", v, scale, max))
		}
		ks[i] = k
	}
	return ks
}

// floatStoreV3 is the version 3 encoding of s, whose values all lie on
// the grid k/scale, as a store of float columns wrote it: on that grid,
// each chunk through appendChunkRef.
func floatStoreV3(s *Series, scale, max int) []byte {
	enc := encoder{version: BinaryV3, scale: scale, max: max}
	raw := enc.appendHeader(nil, s.name, s.unit, s.epoch, s.Len())
	s.data.Chunks(0, func(offs []int64, vals []float64) bool {
		raw = enc.appendChunkRef(raw, offs, vals)
		return true
	})
	return raw
}

// TestCaptureBytesPerSample: a 33.5 s capture at 5 kHz, 167 499 samples
// stored as a Monsoon capture stores them (levels, appended in a
// sampler's runs of up to a chunk), allocates at most 4.2 bytes a sample:
// its level columns and little else, where a float and an offset column
// took 16.
func TestCaptureBytesPerSample(t *testing.T) {
	const n = 167_499
	ks := make([]uint32, samples.ChunkLen)
	for i := range ks {
		ks[i] = uint32(3000 + i%37)
	}
	period := 200 * time.Microsecond
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewGridSeries("current", "mA", 10, 60000)
	for at := 0; at < n; at += len(ks) {
		if err := s.AppendLevels(t0.Add(time.Duration(at)*period), period, ks[:min(len(ks), n-at)]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d samples: %.2f bytes a sample", s.Len(), perSample)
	if s.Len() != n || perSample > 4.2 {
		t.Fatalf("%d samples took %.2f bytes a sample, want at most 4.2", s.Len(), perSample)
	}
}

// TestLiveOffGridAllocatesOnlyItsCopy: a read of a series off any grid
// takes its quantiles from a sorted copy of the values, which reads
// recycle, and allocates nothing else: not the list of columns it copies
// from either.
func TestLiveOffGridAllocatesOnlyItsCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("the sorted copy is recycled through a sync.Pool, which the race detector empties at will")
	}
	s := quantizedCapture(10*samples.ChunkLen + 7)
	s.Live() // folds, and grows what reads keep
	if n := testing.AllocsPerRun(20, func() { s.Live() }); n > 1 {
		t.Fatalf("a read off the grid: %v allocations, want at most 1 (its sorted copy)", n)
	}
}
