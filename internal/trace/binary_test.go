package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
		"bytes past the last sample":       head(2, 2, 2, 4, 0, 0, 0, 0),
		"bytes past an empty trace":        head(2, 0, 0),
		"v1 bytes past the last sample":    head(1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
	} {
		if s, err := ReadBinary(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decoded to %d samples", name, s.Len())
		}
	}
	var trailing *TrailingBytesError
	if _, err := ReadBinary(bytes.NewReader(head(2, 2, 2, 4, 0, 0, 0, 0))); !errors.As(err, &trailing) || trailing.Extra != 1 {
		t.Errorf("bytes past the last sample: %v, want a TrailingBytesError of 1 byte", err)
	}
	// The same header with an honest payload decodes.
	if s, err := ReadBinary(bytes.NewReader(head(2, 2, 2, 4, 0, 0, 0))); err != nil || s.Len() != 2 {
		t.Fatalf("control trace: %v", err)
	}
}

// appendChunkRef is the version 2 chunk body appendChunk replaced, kept
// as its reference: every varint through binary.AppendVarint or
// binary.AppendUvarint.
func (e *v2Encoder) appendChunkRef(dst []byte, offs []int64, vals []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(offs)))
	for _, off := range offs {
		delta := off - e.prevT
		dst = binary.AppendVarint(dst, delta-e.prevDelta)
		e.prevT, e.prevDelta = off, delta
	}
	for _, v := range vals {
		bits := math.Float64bits(v)
		dst = binary.AppendUvarint(dst, bits^e.prevBits)
		e.prevBits = bits
	}
	return dst
}

// encodeRef is the version 2 encoding of s through appendChunkRef.
func encodeRef(s *Series) []byte {
	raw := appendHeader(nil, BinaryV2, s.name, s.unit, s.epoch, s.Len())
	var enc v2Encoder
	s.data.Chunks(0, func(offs []int64, vals []float64) bool {
		raw = enc.appendChunkRef(raw, offs, vals)
		return true
	})
	return raw
}

// chunkedTrace is a version 2 trace of offs and vals, written by
// appendChunkRef in chunks of the given lengths, however they fall
// against samples.ChunkLen.
func chunkedTrace(offs []int64, vals []float64, lens ...int) []byte {
	raw := appendHeader(nil, BinaryV2, "current", "mA", t0, len(offs))
	var enc v2Encoder
	for _, n := range lens {
		raw = enc.appendChunkRef(raw, offs[:n], vals[:n])
		offs, vals = offs[n:], vals[n:]
	}
	return raw
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

// FuzzReadBinary feeds the decoder arbitrary bytes as either version.
// It must not panic or size anything from a stated length; what it
// accepts is an ordered series of exactly the stated count that both
// encoders write back to something that decodes bit-identically, and
// that the version 2 encoder writes byte for byte as appendChunkRef does.
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
	f.Add(chunkedTrace([]int64{0, 1, 2, 3}, vals, 4))
	f.Add(chunkedTrace([]int64{0, 1, 66, 66, 1 << 57}, []float64{1, 2, 3, 4, 5}, 5))
	f.Add(chunkedTrace([]int64{0, 5, 10, 15}, []float64{1, 2, 3, 4}, 1, 2, 1))
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
		var got bytes.Buffer
		if err := s.WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if want := encodeRef(s); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("encoder wrote %d bytes, appendChunkRef %d, or they differ", got.Len(), len(want))
		}
	})
}

// TestDecodeAcrossChunkBoundaries: chunks cut anywhere against
// samples.ChunkLen — one sample, a chunk's worth straddling a boundary —
// decode to the samples they state, and the decoded series stores them
// in whole chunks as appending them would.
func TestDecodeAcrossChunkBoundaries(t *testing.T) {
	want := quantizedCapture(2*samples.ChunkLen + 3)
	var offs []int64
	var vals []float64
	want.Samples().Iter(func(off int64, v float64) bool {
		offs, vals = append(offs, off), append(vals, v)
		return true
	})
	got, err := DecodeBinary(chunkedTrace(offs, vals, 1, samples.ChunkLen, samples.ChunkLen-1, 3))
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
	if !reflect.DeepEqual(got.Samples(), want.Samples()) {
		t.Fatal("decoded chunks differ from appended ones")
	}
	if got.Duration() != want.Duration() || got.EnergyMAH() != want.EnergyMAH() {
		t.Fatalf("decoded %v, %v mAh; appended %v, %v mAh", got.Duration(), got.EnergyMAH(), want.Duration(), want.EnergyMAH())
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
// the header epoch and its value, decoding both v2 columns in step, and
// refuses bytes past the last sample as the run decoder does.
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
	}
	if p < len(payload) {
		return &TrailingBytesError{Count: h.Count, Extra: len(payload) - p}
	}
	return nil
}

// decoderSeeds are payload shapes at the edges of the run decoder's
// paths: value varints of 8 (the widest single load), 9 and 10 bytes,
// an overlong varint away from and at the payload's end, a varint that
// straddles the payload's last 8 bytes, and a chunk cut short.
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
	return [][]byte{
		trace(1<<55, 1<<62, 1<<63, 1, 2, 3, 4, 5, 6, 7, 8), // 8-, 9- and 10-byte values ahead of 8 more bytes
		trace(1, 2, 1<<55),                        // an 8-byte value that ends the payload
		trace(1, 2, 1<<62),                        // a 9-byte one
		trace(1, 2, 1<<63),                        // a 10-byte one
		overlong(0x80, 0x00, 0, 0, 0, 0, 0, 0, 0), // 0 as two bytes, with a word behind it
		overlong(0, 0, 0, 0, 0, 0, 0, 0x80, 0x00), // and at the payload's end
		trace(1, 1<<21, 1<<28),                    // a 4-byte varint from 9 bytes before the end into the last 8
		whole.Bytes()[:whole.Len()-5],             // a chunk cut short
	}
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

// BenchmarkEncodeBinary encodes 167 499 samples (33.5 s) of quantized
// 5 kHz capture into a fresh buffer: the bytes saveRun stores of a
// measurement's current trace. ns/sample divides an op by the sample
// count.
func BenchmarkEncodeBinary(b *testing.B) {
	const count = 167_499
	s := quantizedCapture(count)
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
}

// BenchmarkDecodeBinary rebuilds a Series from the bytes of 167 499
// samples (33.5 s) of quantized 5 kHz capture: the client's Result
// rebuild of a measurement's current trace. ns/sample divides an op by
// the sample count.
func BenchmarkDecodeBinary(b *testing.B) {
	const count = 167_499
	var buf bytes.Buffer
	if err := quantizedCapture(count).WriteBinary(&buf); err != nil {
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
}
