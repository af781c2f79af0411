package trace

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the binary trace golden fixtures")

// goldenSeries is the fixed trace behind the testdata fixtures: a short
// 5 kHz capture with a quantized-current shape like the Monsoon's.
func goldenSeries() *Series {
	s := NewSeries("current", "mA")
	r := rand.New(rand.NewSource(2019))
	for i := 0; i < 2*4096+37; i++ {
		v := 160 + math.Floor(r.Float64()*400)/10 // 0.1 mA quantization
		s.MustAppend(t0.Add(time.Duration(i)*200*time.Microsecond), v)
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
	if err := s.WriteBinary(&buf); err != nil {
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
	}
	burst := NewSeries("burst", "u")
	burst.MustAppend(t0, 1)
	burst.MustAppend(t0, 2) // equal timestamps (burst sampling)
	burst.MustAppend(t0.Add(time.Hour), 3)
	cases = append(cases, burst)
	for _, want := range cases {
		for _, version := range []int{BinaryV1, BinaryV2} {
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

// TestGoldenFixtures pins the on-disk encoding: the checked-in v1 and
// v2 fixtures must keep decoding bit-identically to goldenSeries, and
// today's encoder must keep producing exactly the v2 fixture's bytes.
// Regenerate (after a deliberate format change, with a version bump)
// with: go test ./internal/trace -run Golden -update-golden
func TestGoldenFixtures(t *testing.T) {
	want := goldenSeries()
	v1Path := filepath.Join("testdata", "golden_v1.bltrace")
	v2Path := filepath.Join("testdata", "golden_v2.bltrace")
	if *updateGolden {
		for _, f := range []struct {
			path    string
			version int
		}{{v1Path, BinaryV1}, {v2Path, BinaryV2}} {
			var buf bytes.Buffer
			if err := EncodeBinary(&buf, want, f.version); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(f.path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, path := range []string{v1Path, v2Path} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create)", path, err)
		}
		got, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		assertBitIdentical(t, got, want)
	}
	// Encoder stability: v2 output is byte-for-byte the fixture.
	rawV2, err := os.ReadFile(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := want.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), rawV2) {
		t.Fatal("v2 encoder output drifted from the golden fixture")
	}
}

// TestAppendBinaryMatchesWriteBinary: the column entry point and the
// Series one are the same encoder — same bytes for the same samples,
// across chunk boundaries and for the empty trace.
func TestAppendBinaryMatchesWriteBinary(t *testing.T) {
	for _, s := range []*Series{goldenSeries(), mk(7), NewSeries("current", "mA")} {
		var want bytes.Buffer
		if err := s.WriteBinary(&want); err != nil {
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
			t.Fatalf("%d samples: AppendBinary wrote %d bytes, WriteBinary %d, or they differ", s.Len(), len(got)-4, want.Len())
		}
	}
}

// TestBinaryRejectsHostileHeaders: every length the header states is
// checked against the bytes that are there before anything is sized or
// read from it, and timestamps that run backwards or off the end of an
// int64 are refused by the decoder itself.
func TestBinaryRejectsHostileHeaders(t *testing.T) {
	head := func(version byte, tail ...byte) []byte {
		return append([]byte{'B', 'L', 'T', 'R', 'C', version, 1, 'n', 1, 'u', 0, 0}, tail...)
	}
	maxOff := binary.AppendVarint(nil, math.MaxInt64)
	for name, raw := range map[string][]byte{
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
	} {
		if s, err := ReadBinary(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decoded to %d samples", name, s.Len())
		}
	}
	// The same header with an honest payload decodes.
	if s, err := ReadBinary(bytes.NewReader(head(2, 2, 2, 4, 0, 0, 0))); err != nil || s.Len() != 2 {
		t.Fatalf("control trace: %v", err)
	}
}

// FuzzReadBinary feeds the decoder arbitrary bytes as either version.
// It must not panic or size anything from a stated length; what it
// accepts is an ordered series of exactly the stated count that both
// encoders write back to something that decodes bit-identically.
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
		for _, version := range []int{BinaryV1, BinaryV2} {
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
	})
}
