package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"batterylab/internal/samples"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the binary trace golden fixtures")

// goldenSeries is the fixed trace behind the testdata fixtures: a short
// 5 kHz capture with a quantized-current shape like the Monsoon's.
func goldenSeries() *Series { return quantizedCapture(2*4096 + 37) }

// quantizedCapture is n samples of 5 kHz capture with the Monsoon's
// 0.1 mA quantization; every length is a prefix of the same trace.
func quantizedCapture(n int) *Series {
	s := NewSeries("current", "mA")
	r := rand.New(rand.NewSource(2019))
	for i := 0; i < n; i++ {
		v := 160 + math.Floor(r.Float64()*400)/10 // 0.1 mA quantization
		s.MustAppend(t0.Add(time.Duration(i)*200*time.Microsecond), v)
	}
	return s
}

// gridCapture is n samples of 5 kHz capture on the Monsoon's grid, every
// value float64(k)/10 exactly, in a grid series: a few levels of ADC
// noise around a current that steps every 1000 samples, as a device
// moving between phases draws. Every length is a prefix of the same
// trace.
func gridCapture(n int) *Series {
	s := NewGridSeries("current", "mA", 10, 60000)
	r := rand.New(rand.NewSource(2019))
	base := 0
	ks := make([]uint32, n)
	for i := range ks {
		if i%1000 == 0 {
			base = 800 + r.Intn(4000)
		}
		ks[i] = uint32(base + r.Intn(21) - 10)
	}
	if err := s.AppendLevels(t0, 200*time.Microsecond, ks); err != nil {
		panic(err)
	}
	return s
}

// gridGolden is the fixed trace behind golden_v3_grid.bltrace: a short
// grid capture whose last sample comes a millisecond late, so that it
// holds steady chunks and an unsteady one, and level deltas of one byte
// and of two.
func gridGolden() *Series {
	s := gridCapture(2*samples.ChunkLen + 36)
	if err := s.AppendLevels(s.At(s.Len()-1).T.Add(time.Millisecond), 0, []uint32{4321}); err != nil {
		panic(err)
	}
	return s
}

// gridSeries is a grid series of the Monsoon's grid holding the levels
// of vals, a second apart.
func gridSeries(vals ...float64) *Series {
	s := NewGridSeries("current", "mA", 10, 60000)
	if err := s.AppendLevels(t0, time.Second, levelsOf(vals, 10, 60000)); err != nil {
		panic(err)
	}
	return s
}

func assertBitIdentical(t *testing.T, got, want *Series) {
	t.Helper()
	if got.Name() != want.Name() || got.Unit() != want.Unit() {
		t.Fatalf("metadata = %q/%q, want %q/%q", got.Name(), got.Unit(), want.Name(), want.Unit())
	}
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if !g.T.Equal(w.T) {
			t.Fatalf("sample %d time = %v, want %v", i, g.T, w.T)
		}
		if math.Float64bits(g.V) != math.Float64bits(w.V) {
			t.Fatalf("sample %d value bits differ: %v vs %v", i, g.V, w.V)
		}
	}
}

func TestBinaryRoundTripV2(t *testing.T) {
	s := goldenSeries()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, s, BinaryV2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, s)
	// The streaming summary is rebuilt on decode.
	if got.Summary() != s.Summary() {
		t.Fatalf("summary %+v != %+v", got.Summary(), s.Summary())
	}
	if got.EnergyMAH() != s.EnergyMAH() {
		t.Fatal("energy differs after round trip")
	}
}

// TestBinaryRoundTripV3: WriteBinary writes version 3, on the grid of a
// grid series whose values all lie on it. Its bytes decode to the series
// they came from, bit for bit, with that grid, so the summaries agree and
// writing the decoded series gives back the same bytes; a grid capture
// takes a fraction of version 2's bytes.
func TestBinaryRoundTripV3(t *testing.T) {
	for _, c := range []struct {
		s          *Series
		scale, max int
	}{{goldenSeries(), 0, 0}, {gridGolden(), 10, 60000}} {
		var buf bytes.Buffer
		if err := c.s.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		raw := bytes.Clone(buf.Bytes())
		h, _, err := DecodeHeader(raw)
		if err != nil || h.Version != BinaryV3 || h.Scale != c.scale || h.Max != c.max {
			t.Fatalf("header %+v, %v; want version 3 on grid %d/%d", h, err, c.scale, c.max)
		}
		got, err := DecodeBinary(raw)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, c.s)
		if scale, max := got.Grid(); scale != c.scale || max != c.max || got.levels.On() != (c.scale > 0) {
			t.Fatalf("decoded series on the grid %d/%d, counting levels %v; want %d/%d", scale, max, got.levels.On(), c.scale, c.max)
		}
		if got.Summary() != c.s.Summary() || !sameBits(got.Live(), c.s.Live()) {
			t.Fatalf("summary %+v != %+v", got.Live(), c.s.Live())
		}
		var again bytes.Buffer
		if err := got.WriteBinary(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), raw) {
			t.Fatalf("encode(decode(b)): %d bytes, b %d, or they differ", again.Len(), len(raw))
		}
	}
	s := gridGolden()
	var v2, v3 bytes.Buffer
	if err := EncodeBinary(&v2, s, BinaryV2); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBinary(&v3); err != nil {
		t.Fatal(err)
	}
	// About a byte a level delta and nothing a timestamp: every chunk
	// but the late sample's is steady, the first one too.
	if perSample := float64(v3.Len()) / float64(s.Len()); perSample > 1.1 || 5*v3.Len() > v2.Len() {
		t.Fatalf("v3 %.2f bytes/sample (%d bytes) on a grid capture, v2 %d bytes: want at most 1.1 and a fifth of v2", perSample, v3.Len(), v2.Len())
	}
}

// TestV3GridChoice: a grid series is written on its grid, a series that
// declares none with no grid, its values XORed — NaN, −0, a value between
// levels, below 0 or above the Monsoon's max among them — and either
// decodes bit for bit. A grid the format cannot hold is refused when the
// series is made.
func TestV3GridChoice(t *testing.T) {
	for _, g := range [][2]int{{0, 100}, {10, 0}, {maxGrid + 1, 100}, {10, maxGrid + 1}, {-1, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGridSeries made a series on the grid %d/%d", g[0], g[1])
				}
			}()
			NewGridSeries("current", "mA", g[0], g[1])
		}()
	}
	for name, c := range map[string]struct {
		s     *Series
		scale int
	}{
		"empty grid series": {NewGridSeries("current", "mA", 10, 60000), 10},
		"on the grid":       {gridSeries(0, 0.1, 6000, 123.4, 123.4), 10},
		"no grid declared":  {mk(0, 0.1, 0.2, 1, math.NaN(), 2, math.Copysign(0, -1), 0.15, -0.1, 6000.1), 0},
	} {
		var buf bytes.Buffer
		if err := c.s.WriteBinary(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h, _, err := DecodeHeader(buf.Bytes())
		if err != nil || h.Scale != c.scale {
			t.Fatalf("%s: grid scale %d, %v; want %d", name, h.Scale, err, c.scale)
		}
		got, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertBitIdentical(t, got, c.s)
	}
}

// TestV3EncoderRefusesOffGridValue: a value its grid does not hold
// never reaches the encoder, so it is never written as a level: a grid
// series refuses every float, on every route a float takes in, wherever
// it stands in a run, and stores none of it. Its length, Live and version
// 3 bytes are as they were.
func TestV3EncoderRefusesOffGridValue(t *testing.T) {
	s := gridSeries(0.1, 0.2, 123.4)
	before, live, raw := s.Len(), s.Live(), v3Bytes(t, s)
	at := t0.Add(time.Hour)
	refused := func(appendFloat func() error) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%v", p)
			}
		}()
		return appendFloat()
	}
	for _, v := range []float64{0.15, math.NaN(), math.Copysign(0, -1), 6000.1, math.Inf(1), -0.1, 0.2} {
		for route, appendFloat := range map[string]func() error{
			"Append":     func() error { return s.Append(at, v) },
			"MustAppend": func() error { s.MustAppend(at, v); return nil },
			"AppendRun, first": func() error {
				return s.AppendRun(at, time.Second, []float64{v, 0.3, 0.4})
			},
			"AppendRun, middle": func() error {
				return s.AppendRun(at, time.Second, []float64{0.3, v, 0.4})
			},
			"AppendRun, last": func() error {
				return s.AppendRun(at, time.Second, []float64{0.3, 0.4, v})
			},
			"samples.Series.Append":    func() error { s.Samples().Append(0, v); return nil },
			"samples.Series.AppendRun": func() error { s.Samples().AppendRun(0, 1, []float64{0.3, v}); return nil },
		} {
			if err := refused(appendFloat); err == nil {
				t.Errorf("%s of %v: taken", route, v)
			}
			if s.Len() != before || !sameBits(s.Live(), live) || !bytes.Equal(v3Bytes(t, s), raw) {
				t.Fatalf("%s of %v: %d samples, Live %+v; want %d, %+v, and the same bytes", route, v, s.Len(), s.Live(), before, live)
			}
		}
	}
}

func TestBinaryRoundTripV1(t *testing.T) {
	s := goldenSeries()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, s, BinaryV1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, s)
}

func TestBinaryRoundTripEdgeCases(t *testing.T) {
	cases := []*Series{
		NewSeries("empty", "u"),
		mk(7),
		mk(0, 0, 0, 0), // constant: v2 value column collapses to XOR zeros
		mk(1.5, -2.25, math.Inf(1), math.SmallestNonzeroFloat64),
		NewGridSeries("empty grid", "mA", 10, 60000),
		gridSeries(0, 6000, 0, 0.1), // level deltas of ±60000
		gridSeries(7),
	}
	burst := NewSeries("burst", "u")
	burst.MustAppend(t0, 1)
	burst.MustAppend(t0, 2) // equal timestamps (burst sampling)
	burst.MustAppend(t0.Add(time.Hour), 3)
	cases = append(cases, burst)
	for _, want := range cases {
		for _, version := range []int{BinaryV1, BinaryV2, BinaryV3} {
			var buf bytes.Buffer
			if err := EncodeBinary(&buf, want, version); err != nil {
				t.Fatalf("%s v%d: %v", want.Name(), version, err)
			}
			got, err := ReadBinary(&buf)
			if err != nil {
				t.Fatalf("%s v%d: %v", want.Name(), version, err)
			}
			assertBitIdentical(t, got, want)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("elapsed_s,current_mA\n0,1\n"))); err == nil {
		t.Fatal("CSV accepted as binary")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("BLTRC\x09"))); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := goldenSeries().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestBinaryV2SmallerThanCSVAndV1(t *testing.T) {
	s := goldenSeries()
	var v1, v2, csv bytes.Buffer
	if err := EncodeBinary(&v1, s, BinaryV1); err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(&v2, s, BinaryV2); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= v1.Len() || v2.Len() >= csv.Len() {
		t.Fatalf("v2 = %d bytes, v1 = %d, csv = %d: v2 should be smallest", v2.Len(), v1.Len(), csv.Len())
	}
	// Constant-rate timestamps collapse to ~1 byte/sample; quantized
	// values XOR to mantissa-only varints. ~9 bytes/sample against v1's
	// fixed 13 and CSV's ~26.
	if perSample := float64(v2.Len()) / float64(s.Len()); perSample > 10 {
		t.Fatalf("v2 %.1f bytes/sample on a quantized 5 kHz trace, want < 10", perSample)
	}
}

// TestGoldenFixtures pins the on-disk encoding: the checked-in v1, v2
// and v3 fixtures must keep decoding bit-identically to the series they
// were written from, today's WriteBinary must keep producing exactly the
// v3 fixtures' bytes, and EncodeBinary at version 2 the v2 fixture's.
// Regenerate the v3 ones (after a deliberate format change, with a
// version bump) with: go test ./internal/trace -run Golden -update-golden
func TestGoldenFixtures(t *testing.T) {
	fixtures := []struct {
		file    string
		series  *Series
		version int
	}{
		{"golden_v1.bltrace", goldenSeries(), BinaryV1},
		{"golden_v2.bltrace", goldenSeries(), BinaryV2},
		{"golden_v3.bltrace", goldenSeries(), BinaryV3},
		{"golden_v3_grid.bltrace", gridGolden(), BinaryV3},
	}
	for _, f := range fixtures {
		path := filepath.Join("testdata", f.file)
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, f.series, f.version); err != nil {
			t.Fatal(err)
		}
		if *updateGolden && f.version == BinaryV3 { // the older fixtures are frozen
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create)", path, err)
		}
		got, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		assertBitIdentical(t, got, f.series)
		if f.version == BinaryV1 { // not written since version 2 became the default
			continue
		}
		// Encoder stability: the output is byte for byte the fixture.
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("v%d encoder output drifted from %s", f.version, path)
		}
		if f.version == BinaryV3 {
			buf.Reset()
			if err := f.series.WriteBinary(&buf); err != nil || !bytes.Equal(buf.Bytes(), raw) {
				t.Fatalf("WriteBinary drifted from %s (%v)", path, err)
			}
		}
	}
}

// TestAppendBinaryMatchesWriteBinary: the column entry point and the
// Series one are the same encoder — same bytes for the same samples,
// across chunk boundaries and for the empty trace. The columns are
// written at version 2 (the live sample frames), so the Series is too.
func TestAppendBinaryMatchesWriteBinary(t *testing.T) {
	for _, s := range []*Series{goldenSeries(), gridGolden(), mk(7), NewSeries("current", "mA")} {
		var want bytes.Buffer
		if err := EncodeBinary(&want, s, BinaryV2); err != nil {
			t.Fatal(err)
		}
		var offs []int64
		var vals []float64
		s.Samples().Iter(func(off int64, v float64) bool {
			offs, vals = append(offs, off), append(vals, v)
			return true
		})
		got := AppendBinary([]byte("kept"), s.Name(), s.Unit(), t0, offs, vals)
		if !bytes.Equal(got[4:], want.Bytes()) || string(got[:4]) != "kept" {
			t.Fatalf("%d samples: AppendBinary wrote %d bytes, EncodeBinary %d, or they differ", s.Len(), len(got)-4, want.Len())
		}
	}
}

// head is a trace's header up to its count, for a name "n" and a unit
// "u" at epoch 0, followed by tail: the count, for version 3 the grid,
// then the payload.
func head(version byte, tail ...byte) []byte {
	return append([]byte{'B', 'L', 'T', 'R', 'C', version, 1, 'n', 1, 'u', 0, 0}, tail...)
}

// hostileV3 are version 3 traces each refused for one thing alone: a grid
// past the format's bounds or half stated, a level off the grid or run
// off an int64, a steady chunk whose stated period runs back or whose
// filled offsets run past an int64, an empty chunk, a count the payload
// cannot hold, and a byte too many.
func hostileV3() map[string][]byte {
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	zz := func(x int64) []byte { return binary.AppendVarint(nil, x) }
	return map[string][]byte{
		"v3 grid max past the bound":         head(3, cat(uv(1), uv(10), uv(maxGrid+1), uv(3), zz(0), zz(1))...),
		"v3 grid scale past the bound":       head(3, cat(uv(1), uv(maxGrid+1), uv(100), uv(3), zz(0), zz(1))...),
		"v3 grid scale without a max":        head(3, 1, 10, 0, 3, 0, 0),
		"v3 grid max without a scale":        head(3, 1, 0, 100, 3, 0, 0),
		"v3 level below 0":                   head(3, cat(uv(1), uv(10), uv(100), uv(3), zz(0), zz(-1))...),
		"v3 level above max":                 head(3, cat(uv(2), uv(10), uv(100), uv(2<<1), zz(0), zz(0), zz(100), zz(1))...),
		"v3 level run past an int64":         head(3, cat(uv(2), uv(10), uv(100), uv(2<<1), zz(0), zz(0), zz(5), zz(math.MaxInt64))...),
		"v3 steady chunk running back":       head(3, cat(uv(3), uv(0), uv(0), uv(3<<1|1), zz(5), zz(-8), uv(0), uv(0), uv(0))...),
		"v3 steady chunk past an int64":      head(3, cat(uv(3), uv(0), uv(0), uv(3<<1|1), zz(0), zz(1<<62), uv(0), uv(0), uv(0))...),
		"v3 empty chunk":                     head(3, 1, 0, 0, 1, 0, 0),
		"v3 count the payload cannot hold":   head(3, 3, 0, 0, 3, 0),
		"v3 bytes past the last sample":      head(3, 1, 0, 0, 3, 0, 0, 0),
		"v3 grid bytes past the last sample": head(3, 1, 10, 100, 3, 0, 2, 0),
	}
}

// TestBinaryRejectsHostileHeaders: every length the header states is
// checked against the bytes that are there before anything is sized or
// read from it, and timestamps that run backwards or off the end of an
// int64, or levels off the grid, are refused by the decoder itself.
func TestBinaryRejectsHostileHeaders(t *testing.T) {
	maxOff := binary.AppendVarint(nil, math.MaxInt64)
	hostile := map[string][]byte{
		"name longer than the input":       {'B', 'L', 'T', 'R', 'C', 2, 200, 'n'},
		"name past the string bound":       append([]byte{'B', 'L', 'T', 'R', 'C', 2}, binary.AppendUvarint(nil, 1<<40)...),
		"epoch nanoseconds ≥ 1 s":          append([]byte{'B', 'L', 'T', 'R', 'C', 2, 0, 0, 0}, binary.AppendUvarint(nil, 1e9)...),
		"v2 count the payload cannot hold": head(2, 3, 3, 0, 0, 0, 0),
		"v1 count the payload cannot hold": head(1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"count overflowing a varint":       head(2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"chunk longer than the count":      head(2, 1, 2, 0, 0, 0, 0),
		"empty chunk":                      head(2, 1, 0, 0, 0),
		"v2 timestamps running back":       head(2, 2, 2, 4, 5, 0, 0),                                        // offsets 2, then 2+(2-3)
		"v1 timestamps running back":       head(1, 2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0), // offsets 2, 1
		"v2 offset sum wrapping":           head(2, append(append([]byte{3, 3}, maxOff...), append(maxOff, 0, 0, 0, 0)...)...),
		"v1 span past an int64":            head(1, append(append([]byte{2, 3}, 0, 0, 0, 0, 0, 0, 0, 0), append(maxOff, 0, 0, 0, 0, 0, 0, 0, 0)...)...), // offsets -2, MaxInt64
		"bytes past the last sample":       head(2, 2, 2, 4, 0, 0, 0, 0),
		"bytes past an empty trace":        head(2, 0, 0),
		"v1 bytes past the last sample":    head(1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
	}
	maps.Copy(hostile, hostileV3())
	for name, raw := range hostile {
		if s, err := ReadBinary(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decoded to %d samples", name, s.Len())
		}
	}
	var trailing *TrailingBytesError
	if _, err := ReadBinary(bytes.NewReader(head(2, 2, 2, 4, 0, 0, 0, 0))); !errors.As(err, &trailing) || trailing.Extra != 1 {
		t.Errorf("bytes past the last sample: %v, want a TrailingBytesError of 1 byte", err)
	}
	// The same headers with an honest payload decode: offsets 2 and 4,
	// and offsets 2, 4 and 6 at levels 1, 2 and 3 of a steady version 3
	// chunk.
	if s, err := ReadBinary(bytes.NewReader(head(2, 2, 2, 4, 0, 0, 0))); err != nil || s.Len() != 2 {
		t.Fatalf("control trace: %v", err)
	}
	s, err := ReadBinary(bytes.NewReader(head(3, 3, 10, 100, 3<<1|1, 4, 0, 2, 2, 2)))
	if err != nil || s.Len() != 3 || s.Samples().T(2) != 4 || s.At(0).V != 0.1 || s.At(2).V != 0.3 {
		t.Fatalf("v3 control trace: %v", err)
	}
}

// appendChunkRef is the chunk body appendChunk replaced, kept as its
// reference and grown to version 3 a sample at a time: every varint
// through binary.AppendVarint or binary.AppendUvarint, a chunk of 3 or
// more samples steady when every delta-of-delta after its second is zero.
func (e *encoder) appendChunkRef(dst []byte, offs []int64, vals []float64) []byte {
	head := uint64(len(offs))
	steady := false
	if e.version == BinaryV3 {
		steady = len(offs) > 2
		prevT, prevDelta := e.prevT, e.prevDelta
		for i, off := range offs {
			delta := off - prevT
			if i > 1 && delta != prevDelta {
				steady = false
			}
			prevT, prevDelta = off, delta
		}
		head <<= 1
		if steady {
			head |= 1
		}
	}
	dst = binary.AppendUvarint(dst, head)
	for i, off := range offs {
		delta := off - e.prevT
		if i < 2 || !steady {
			dst = binary.AppendVarint(dst, delta-e.prevDelta)
		}
		e.prevT, e.prevDelta = off, delta
	}
	for _, v := range vals {
		if e.scale > 0 {
			k, _ := levelOf(v, e.scale, e.max)
			dst = binary.AppendVarint(dst, int64(k)-e.prevK)
			e.prevK = int64(k)
			continue
		}
		bits := math.Float64bits(v)
		dst = binary.AppendUvarint(dst, bits^e.prevBits)
		e.prevBits = bits
	}
	return dst
}

// encodeRef is what EncodeBinary writes of s at version 2 or 3, through
// appendChunkRef.
func encodeRef(s *Series, version int) []byte {
	enc := encoder{version: version}
	if version == BinaryV3 {
		enc.scale, enc.max = s.Grid()
	}
	raw := enc.appendHeader(nil, s.name, s.unit, s.epoch, s.Len())
	s.data.Chunks(0, func(offs []int64, vals []float64) bool {
		raw = enc.appendChunkRef(raw, offs, vals)
		return true
	})
	return raw
}

// chunkedTrace is a trace of offs and vals at enc's version and grid,
// written by appendChunkRef in chunks of the given lengths, however they
// fall against samples.ChunkLen.
func chunkedTrace(enc encoder, offs []int64, vals []float64, lens ...int) []byte {
	raw := enc.appendHeader(nil, "current", "mA", t0, len(offs))
	for _, n := range lens {
		raw = enc.appendChunkRef(raw, offs[:n], vals[:n])
		offs, vals = offs[n:], vals[n:]
	}
	return raw
}

// v3Seeds are version 3 traces the reference writes: steady chunks and
// unsteady ones, on a grid and off one, level deltas of one byte, two,
// three and four (a full steady chunk alternating between the widest
// grid's ends), and chunks cut across the decoder's chunk boundaries.
func v3Seeds() [][]byte {
	v2, v3, grid := encoder{version: BinaryV2}, encoder{version: BinaryV3}, encoder{version: BinaryV3, scale: 10, max: 60000}
	steady := []int64{0, 200, 400, 600, 800, 1000}
	wide, wideOffs, wideVals := encoder{version: BinaryV3, scale: 1, max: maxGrid}, make([]int64, samples.ChunkLen), make([]float64, samples.ChunkLen)
	for i := range wideOffs {
		wideOffs[i], wideVals[i] = int64(i)*200, float64(i%2*maxGrid)
	}
	return [][]byte{
		chunkedTrace(wide, wideOffs, wideVals, samples.ChunkLen),
		chunkedTrace(v3, steady, []float64{1.5, -2.25, math.Inf(1), 1.5, 1.5, 0}, 6),
		chunkedTrace(v3, []int64{0, 5, 11, 11, 1 << 57}, []float64{1, 2, 3, 4, 5}, 2, 3),
		chunkedTrace(grid, steady, []float64{0.1, 0.2, 6.5, 6000, 0, 1638.4}, 6),
		chunkedTrace(grid, []int64{0, 200, 400, 700, 900, 1100}, []float64{0.1, 0.3, 0.2, 0.2, 0.2, 0.1}, 1, 3, 2),
		chunkedTrace(v2, steady, []float64{1, 2, 3, 4, 5, 6}, 6),
	}
}

// TestUvarintWordMatches: the word the encoder stores puts down the
// bytes binary.PutUvarint writes, on both sides of every length boundary
// up to the 2⁵⁶ where the encoder calls binary.PutUvarint itself.
func TestUvarintWordMatches(t *testing.T) {
	for k := range 57 {
		for _, x := range []uint64{1<<k - 1, 1 << k, 1<<k + 1, 1<<k | 0x5555555555555555>>(64-max(k, 1))} {
			if x >= 1<<56 {
				continue
			}
			w, n := uvarintWord(x)
			got := binary.LittleEndian.AppendUint64(nil, w)
			want := binary.AppendUvarint(nil, x)
			if !bytes.Equal(got[:n], want) || n < 8 && binary.LittleEndian.Uint64(got)>>(8*n) != 0 {
				t.Fatalf("%#x: word % x of %d bytes, binary.PutUvarint % x", x, got, n, want)
			}
		}
	}
}

// FuzzReadBinary feeds the decoder arbitrary bytes as any version. It
// must not panic or size anything from a stated length; what it accepts
// is an ordered series of exactly the stated count that every encoder
// writes back to something that decodes bit-identically, that the
// version 2 and version 3 (WriteBinary) encoders write byte for byte as
// the per-sample reference does, and whose version 3 bytes decode to a
// series that writes them again.
func FuzzReadBinary(f *testing.F) {
	short := mk(1.5, -2.25, math.Inf(1), 1.5, 1.5)
	for _, version := range []int{BinaryV1, BinaryV2} {
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, short, version); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-3])
	}
	f.Add([]byte("BLTRC\x02\x00\x00\x00\x00\x02\x02\x01\x7f\x00\x00"))
	// Written by the reference encoder, not the one under test: value
	// XORs of 2⁵⁶ − 1 (the widest in-place store), 2⁵⁶ and more;
	// delta-of-deltas of 64, -65 (two zigzag bytes) and past 2⁵⁵; and
	// one-sample chunks, which land across the decoder's chunk boundaries.
	xors := []uint64{1<<56 - 1, 1 << 56, 1<<63 | 1}
	vals := make([]float64, len(xors)+1)
	for i, x := range xors {
		vals[i+1] = math.Float64frombits(math.Float64bits(vals[i]) ^ x)
	}
	v2 := encoder{version: BinaryV2}
	f.Add(chunkedTrace(v2, []int64{0, 1, 2, 3}, vals, 4))
	f.Add(chunkedTrace(v2, []int64{0, 1, 66, 66, 1 << 57}, []float64{1, 2, 3, 4, 5}, 5))
	f.Add(chunkedTrace(v2, []int64{0, 5, 10, 15}, []float64{1, 2, 3, 4}, 1, 2, 1))
	for _, s := range []*Series{short, gridSeries(0, 0.1, 6000, 0.2)} {
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-2])
	}
	for _, raw := range v3Seeds() {
		f.Add(raw)
	}
	for _, raw := range hostileV3() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			return
		}
		h, _, err := DecodeHeader(raw)
		if err != nil || h.Count != s.Len() {
			t.Fatalf("accepted %d samples; header: count %d, %v", s.Len(), h.Count, err)
		}
		for i := 1; i < s.Len(); i++ {
			if s.Samples().T(i) < s.Samples().T(i-1) {
				t.Fatalf("sample %d runs backwards", i)
			}
		}
		for _, version := range []int{BinaryV1, BinaryV2, BinaryV3} {
			var buf bytes.Buffer
			if err := EncodeBinary(&buf, s, version); err != nil {
				t.Fatal(err)
			}
			again, err := ReadBinary(&buf)
			if err != nil {
				t.Fatalf("v%d re-encoding does not decode: %v", version, err)
			}
			assertBitIdentical(t, again, s)
		}
		var v2 bytes.Buffer
		if err := EncodeBinary(&v2, s, BinaryV2); err != nil {
			t.Fatal(err)
		}
		if want := encodeRef(s, BinaryV2); !bytes.Equal(v2.Bytes(), want) {
			t.Fatalf("v2 encoder wrote %d bytes, appendChunkRef %d, or they differ", v2.Len(), len(want))
		}
		var got bytes.Buffer
		if err := s.WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if want := encodeRef(s, BinaryV3); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("v3 encoder wrote %d bytes, appendChunkRef %d, or they differ", got.Len(), len(want))
		}
		again, err := DecodeBinary(got.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var twice bytes.Buffer
		if err := again.WriteBinary(&twice); err != nil || !bytes.Equal(twice.Bytes(), got.Bytes()) {
			t.Fatalf("encode(decode(b)) differs from b (%v)", err)
		}
	})
}

// TestDecodeAcrossChunkBoundaries: chunks cut anywhere against
// samples.ChunkLen — one sample, a chunk's worth straddling a boundary —
// decode to the samples they state, at version 2 and on a version 3
// grid, and the decoded series stores them in whole chunks as appending
// them would.
func TestDecodeAcrossChunkBoundaries(t *testing.T) {
	for _, c := range []struct {
		want *Series
		enc  encoder
	}{
		{quantizedCapture(2*samples.ChunkLen + 3), encoder{version: BinaryV2}},
		{gridCapture(2*samples.ChunkLen + 3), encoder{version: BinaryV3, scale: 10, max: 60000}},
	} {
		var offs []int64
		var vals []float64
		c.want.Samples().Iter(func(off int64, v float64) bool {
			offs, vals = append(offs, off), append(vals, v)
			return true
		})
		got, err := DecodeBinary(chunkedTrace(c.enc, offs, vals, 1, samples.ChunkLen, samples.ChunkLen-1, 3))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, c.want)
		if !reflect.DeepEqual(got.Samples(), c.want.Samples()) {
			t.Fatal("decoded chunks differ from appended ones")
		}
		if got.Duration() != c.want.Duration() || got.EnergyMAH() != c.want.EnergyMAH() {
			t.Fatalf("decoded %v, %v mAh; appended %v, %v mAh", got.Duration(), got.EnergyMAH(), c.want.Duration(), c.want.EnergyMAH())
		}
	}
}

// TestDecodeFoldsOnRead: a decoded trace's summary is folded when it is
// first read, not while decoding, and then equals the encoded trace's.
func TestDecodeFoldsOnRead(t *testing.T) {
	want := quantizedCapture(3*samples.ChunkLen + 5)
	var buf bytes.Buffer
	if err := want.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.folded != 0 || got.agg.Snapshot().N != 0 {
		t.Fatalf("decoding folded %d samples (%d in the summary)", got.folded, got.agg.Snapshot().N)
	}
	if math.Float64bits(got.EnergyMAH()) != math.Float64bits(want.EnergyMAH()) {
		t.Fatalf("energy %v mAh, encoded trace's %v", got.EnergyMAH(), want.EnergyMAH())
	}
	if got.folded != got.Len() || !sameBits(got.Live(), want.Live()) {
		t.Fatalf("after a read: %d of %d samples folded; Live %+v, want %+v", got.folded, got.Len(), got.Live(), want.Live())
	}
}

// decodeSamplesRef is the per-sample decoder the run decoder replaced,
// kept as its reference: it calls visit with each sample's offset from
// the header epoch and its value, decoding both v2 columns in step (a v3
// chunk's one after the other), and refuses bytes past the last sample
// as the run decoder does.
func decodeSamplesRef(h Header, payload []byte, visit func(off int64, v float64)) error {
	var first, prevT int64
	p := 0
	switch h.Version {
	case BinaryV1:
		for i := 0; i < h.Count; i++ {
			off, k := binary.Varint(payload[p:])
			if k <= 0 {
				return varintError(fmt.Sprintf("sample %d", i), k)
			}
			p += k
			if len(payload)-p < 8 {
				return fmt.Errorf("trace: sample %d: %w", i, io.ErrUnexpectedEOF)
			}
			bits := binary.LittleEndian.Uint64(payload[p:])
			p += 8
			if i == 0 {
				first = off
			} else if off < prevT || off-first < 0 {
				return orderError(i, off, prevT, first)
			}
			prevT = off
			visit(off, math.Float64frombits(bits))
		}
	case BinaryV2:
		var prevDelta int64
		var prevBits uint64
		for read := 0; read < h.Count; {
			n64, k := binary.Uvarint(payload[p:])
			if k <= 0 {
				return varintError("chunk header", k)
			}
			p += k
			if n64 == 0 || n64 > samples.ChunkLen || n64 > uint64(h.Count-read) {
				return fmt.Errorf("trace: bad chunk length %d (%d of %d samples read)", n64, read, h.Count)
			}
			n := int(n64)
			// The value column starts where the n-th timestamp varint
			// ends; finding that first lets both columns decode in step.
			vp := p
			for left := n; left > 0; vp++ {
				if vp == len(payload) {
					return fmt.Errorf("trace: timestamps of the chunk at sample %d: %w", read, io.ErrUnexpectedEOF)
				}
				if payload[vp] < 0x80 {
					left--
				}
			}
			timestamps := payload[:vp]
			for i := read; i < read+n; i++ {
				dod, k := binary.Varint(timestamps[p:])
				if k <= 0 {
					return varintError(fmt.Sprintf("timestamp %d", i), k)
				}
				p += k
				x, k := binary.Uvarint(payload[vp:])
				if k <= 0 {
					return varintError(fmt.Sprintf("value %d", i), k)
				}
				vp += k
				prevDelta += dod
				off := prevT + prevDelta
				if i == 0 {
					first = off
				} else if prevDelta < 0 || off < prevT || off-first < 0 {
					return orderError(i, off, prevT, first)
				}
				prevT = off
				prevBits ^= x
				visit(off, math.Float64frombits(prevBits))
			}
			p = vp
			read += n
		}
	case BinaryV3:
		// A chunk's timestamps, then its values, each sample checked as
		// it comes: a steady chunk states only its first two
		// delta-of-deltas.
		var prevDelta, level int64
		var prevBits uint64
		for read := 0; read < h.Count; {
			head, k := binary.Uvarint(payload[p:])
			if k <= 0 {
				return varintError("chunk header", k)
			}
			p += k
			n64, steady := head>>1, head&1 == 1
			if n64 == 0 || n64 > samples.ChunkLen || n64 > uint64(h.Count-read) {
				return fmt.Errorf("trace: bad chunk length %d (%d of %d samples read)", n64, read, h.Count)
			}
			offs := make([]int64, n64)
			for i := range offs {
				var dod int64
				if i < 2 || !steady {
					if dod, k = binary.Varint(payload[p:]); k <= 0 {
						return varintError(fmt.Sprintf("timestamp %d", read+i), k)
					}
					p += k
				}
				prevDelta += dod
				off := prevT + prevDelta
				if read+i == 0 {
					first = off
				} else if prevDelta < 0 || off < prevT || off-first < 0 {
					return orderError(read+i, off, prevT, first)
				}
				prevT = off
				offs[i] = off
			}
			for i, off := range offs {
				if h.Scale == 0 {
					x, k := binary.Uvarint(payload[p:])
					if k <= 0 {
						return varintError(fmt.Sprintf("value %d", read+i), k)
					}
					p += k
					prevBits ^= x
					visit(off, math.Float64frombits(prevBits))
					continue
				}
				dk, k := binary.Varint(payload[p:])
				if k <= 0 {
					return varintError(fmt.Sprintf("value %d", read+i), k)
				}
				p += k
				if level += dk; level < 0 || level > int64(h.Max) {
					return fmt.Errorf("trace: value %d: level %d outside the grid's 0..%d", read+i, level, h.Max)
				}
				visit(off, float64(level)/float64(h.Scale))
			}
			read += len(offs)
		}
	}
	if p < len(payload) {
		return &TrailingBytesError{Count: h.Count, Extra: len(payload) - p}
	}
	return nil
}

// decoderSeeds are payload shapes at the edges of the run decoder's
// paths: value varints of 8 (the widest single load), 9 and 10 bytes,
// an overlong varint away from and at the payload's end, a varint that
// straddles the payload's last 8 bytes, the version 3 shapes of
// v3Seeds, and a chunk cut short.
func decoderSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	trace := func(bits ...uint64) []byte {
		offs, vals := make([]int64, len(bits)), make([]float64, len(bits))
		var prev uint64
		for i, x := range bits {
			prev ^= x // the XOR the encoder takes against the previous value
			offs[i], vals[i] = int64(i)*200_000, math.Float64frombits(prev)
		}
		return AppendBinary(nil, "current", "mA", t0, offs, vals)
	}
	// Eight samples at a steady period (eight zero delta-of-deltas after
	// the first), then the value column.
	overlong := func(values ...byte) []byte {
		raw := []byte{'B', 'L', 'T', 'R', 'C', 2, 0, 0, 0, 0, 8, 8, 0, 0, 0, 0, 0, 0, 0, 0}
		return append(raw, values...)
	}
	cut := quantizedCapture(40)
	var whole bytes.Buffer
	if err := cut.WriteBinary(&whole); err != nil {
		tb.Fatal(err)
	}
	return slices.Concat([][]byte{
		trace(1<<55, 1<<62, 1<<63, 1, 2, 3, 4, 5, 6, 7, 8), // 8-, 9- and 10-byte values ahead of 8 more bytes
		trace(1, 2, 1<<55),                        // an 8-byte value that ends the payload
		trace(1, 2, 1<<62),                        // a 9-byte one
		trace(1, 2, 1<<63),                        // a 10-byte one
		overlong(0x80, 0x00, 0, 0, 0, 0, 0, 0, 0), // 0 as two bytes, with a word behind it
		overlong(0, 0, 0, 0, 0, 0, 0, 0x80, 0x00), // and at the payload's end
		trace(1, 1<<21, 1<<28),                    // a 4-byte varint from 9 bytes before the end into the last 8
	}, v3Seeds(), [][]byte{
		whole.Bytes()[:whole.Len()-5], // a chunk cut short
	})
}

// TestDecoderSeedsDecode: the seed shapes reach the decoder's paths
// rather than a refusal ahead of them — every seed but the cut one is a
// trace, and decodes to the values its varints state.
func TestDecoderSeedsDecode(t *testing.T) {
	seeds := decoderSeeds(t)
	for i, raw := range seeds {
		s, err := DecodeBinary(raw)
		if last := i == len(seeds)-1; (err != nil) != last {
			t.Fatalf("seed %d: %v", i, err)
		}
		if i == 0 && math.Float64bits(s.At(2).V) != 1<<55^1<<62^1<<63 {
			t.Fatalf("seed 0: value 2 bits %x", math.Float64bits(s.At(2).V))
		}
	}
}

// FuzzDecoderMatchesReference holds the run decoder to the per-sample
// reference on any bytes: both accept or both refuse, and what they
// accept is the same samples, bit for bit.
func FuzzDecoderMatchesReference(f *testing.F) {
	for _, raw := range decoderSeeds(f) {
		f.Add(raw)
	}
	for _, raw := range hostileV3() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, payload, err := DecodeHeader(raw)
		if err != nil {
			return
		}
		var wantOffs []int64
		var wantVals []float64
		refErr := decodeSamplesRef(h, payload, func(off int64, v float64) {
			wantOffs, wantVals = append(wantOffs, off), append(wantVals, v)
		})
		n := min(h.Count, samples.ChunkLen)
		offs, vals := make([]int64, n), make([]float64, n)
		var gotOffs []int64
		var gotVals []float64
		d := h.Decoder(payload)
		for {
			var k int
			if k, err = d.Next(offs, vals); err != nil || k == 0 {
				break
			}
			for i := range k {
				gotOffs, gotVals = append(gotOffs, d.first+offs[i]), append(gotVals, vals[i])
			}
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("run decoder: %v; reference: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if len(gotOffs) != len(wantOffs) {
			t.Fatalf("run decoder: %d samples, reference %d", len(gotOffs), len(wantOffs))
		}
		for i := range gotOffs {
			if gotOffs[i] != wantOffs[i] || math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
				t.Fatalf("sample %d: (%d, %x), reference (%d, %x)", i, gotOffs[i], math.Float64bits(gotVals[i]), wantOffs[i], math.Float64bits(wantVals[i]))
			}
		}
	})
}

// benchCaptures are the two 167 499-sample (33.5 s) 5 kHz captures the
// codec benchmarks run on: quantizedCapture's values, 0.1 mA steps that
// are not always float64(k)/10 bit for bit, in a series with no grid;
// and gridCapture's, which are, in a series on the Monsoon's grid, as a
// capture is.
var benchCaptures = []struct {
	name string
	make func(int) *Series
}{{"quantized", quantizedCapture}, {"grid", gridCapture}}

// BenchmarkEncodeBinary encodes each bench capture into a fresh buffer:
// the bytes saveRun stores of a measurement's current trace. ns/sample
// divides an op by the sample count.
func BenchmarkEncodeBinary(b *testing.B) {
	const count = 167_499
	for _, c := range benchCaptures {
		b.Run(c.name, func(b *testing.B) {
			s := c.make(count)
			var size int
			b.ReportAllocs()
			for b.Loop() {
				var buf bytes.Buffer
				if err := s.WriteBinary(&buf); err != nil {
					b.Fatal(err)
				}
				size = buf.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/sample")
			b.ReportMetric(float64(size)/count, "bytes/sample")
		})
	}
}

// BenchmarkDecodeBinary rebuilds a Series from the bytes of each bench
// capture: the client's Result rebuild of a measurement's current trace.
// ns/sample divides an op by the sample count.
func BenchmarkDecodeBinary(b *testing.B) {
	const count = 167_499
	for _, c := range benchCaptures {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := c.make(count).WriteBinary(&buf); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DecodeBinary(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/sample")
			b.ReportMetric(float64(len(data))/count, "bytes/sample")
		})
	}
}
