package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"batterylab/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the sample-frame golden fixture")

// goldenFrames is the fixed point set behind testdata/sample_frames.golden:
// three frames that between them cover a lone point, exactly one codec
// chunk and one chunk plus a point, a regular period (zero delta-of-
// delta), irregular and zero timestamp deltas, repeated values, the
// non-finite values and timestamps before 1970.
func goldenFrames() [][]SamplePoint {
	lone := []SamplePoint{{AtNS: -1_500_000_001, CurrentMA: 212.5}}

	// One full chunk at the Monsoon's 5 kHz period, 0.1 mA quantization.
	regular := make([]SamplePoint, 4096)
	lcg := uint64(2019)
	for i := range regular {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		regular[i] = SamplePoint{
			AtNS:      1_573_635_600_000_000_000 + int64(i)*200_000,
			CurrentMA: 160 + float64(lcg>>33%400)/10,
		}
	}

	// One point past a chunk, starting before the epoch and crossing it.
	ragged := make([]SamplePoint, 4097)
	at := int64(-300_000)
	for i := range ragged {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		switch i % 7 {
		case 0: // burst: same timestamp as the previous point
		case 3:
			at += int64(lcg >> 40) // up to ~16 ms
		default:
			at += 200
		}
		v := float64(lcg>>33%50) / 4
		switch {
		case i%5 == 1:
			v = ragged[i-1].CurrentMA // repeated value: XOR collapses to zero
		case i == 100:
			v = math.NaN()
		case i == 200:
			v = math.Inf(1)
		case i == 300:
			v = math.Inf(-1)
		case i == 400:
			v = math.Copysign(0, -1)
		}
		ragged[i] = SamplePoint{AtNS: at, CurrentMA: v}
	}
	return [][]SamplePoint{lone, regular, ragged}
}

func samePoints(t *testing.T, got, want []SamplePoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].AtNS != want[i].AtNS || math.Float64bits(got[i].CurrentMA) != math.Float64bits(want[i].CurrentMA) {
			t.Fatalf("point %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestGoldenSampleFrames pins the wire: the committed fixture was
// written by the Series-based framing this package had before frames
// were encoded straight from points, and today's encoder must produce
// its bytes and today's decoder its points. Regenerate only with a
// deliberate format change: go test ./internal/api -run Golden -update-golden
func TestGoldenSampleFrames(t *testing.T) {
	path := filepath.Join("testdata", "sample_frames.golden")
	frames := goldenFrames()
	var enc bytes.Buffer
	for _, pts := range frames {
		if err := WriteSampleFrame(&enc, pts); err != nil {
			t.Fatal(err)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(enc.Bytes(), golden) {
		t.Fatalf("encoder output (%d bytes) drifted from the golden fixture (%d bytes)", enc.Len(), len(golden))
	}
	br := bufio.NewReader(bytes.NewReader(golden))
	for i, want := range frames {
		got, err := ReadSampleFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		samePoints(t, got, want)
	}
	if _, err := ReadSampleFrame(br); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// frameOf prefixes a frame body with its length.
func frameOf(body []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// refDecode is how a frame body was decoded before this package did it
// directly, kept as the reference the direct decoder is fuzzed against:
// trace.DecodeBinary builds a Series (chunked store, ordering check,
// streaming summary), and each of its samples becomes a point. A sample
// time outside the int64 nanosecond range has no SamplePoint.
func refDecode(body []byte) ([]SamplePoint, error) {
	s, err := trace.DecodeBinary(body)
	if err != nil {
		return nil, err
	}
	pts := make([]SamplePoint, 0, s.Len())
	s.Iter(func(smp trace.Sample) bool {
		if smp.T.Before(minAt) || smp.T.After(maxAt) {
			err = fmt.Errorf("sample at %v is outside the AtNS range", smp.T)
			return false
		}
		pts = append(pts, SamplePoint{AtNS: smp.T.UnixNano(), CurrentMA: smp.V})
		return true
	})
	return pts, err
}

// pointsOf reads fuzz input as a point set: a starting AtNS, then per
// point a step (shifted by its own low bits, so steps of every
// magnitude turn up, wrap-arounds included) and the value's bits.
func pointsOf(data []byte) []SamplePoint {
	if len(data) < 8 {
		return nil
	}
	at := int64(binary.LittleEndian.Uint64(data))
	var pts []SamplePoint
	for data = data[8:]; len(data) >= 16; data = data[16:] {
		step := binary.LittleEndian.Uint64(data)
		at += int64(step >> (step & 63))
		pts = append(pts, SamplePoint{AtNS: at, CurrentMA: math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))})
	}
	return pts
}

// FuzzSampleFrame holds the direct codec to the Series-based one it
// replaced. Read as a frame body, the input must be accepted or refused
// by both decoders alike and give the same points, and those points
// must survive encode∘decode; read as a point set, the encoder must take
// it exactly when it is ordered and spans less than 2⁶³ ns, and what it
// wrote must decode — by both decoders — to the set.
func FuzzSampleFrame(f *testing.F) {
	for _, pts := range goldenFrames() {
		var buf bytes.Buffer
		if err := WriteSampleFrame(&buf, pts[:min(len(pts), 40)]); err != nil {
			f.Fatal(err)
		}
		_, n := binary.Uvarint(buf.Bytes())
		f.Add(buf.Bytes()[n:])
	}
	v1 := trace.NewSeries("live", "mA")
	for i := range 5 {
		v1.MustAppend(time.Unix(1, int64(i)*200), float64(i))
	}
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, v1, trace.BinaryV1); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("BLTRC\x02\x00\x00\x00\x00\x00"))
	f.Add([]byte("BLTRC\x02\x00\x00\x00\x00\x02\x02\x01\x7f\x00\x00")) // second offset behind the first

	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ReadSampleFrame(bufio.NewReader(bytes.NewReader(frameOf(data))))
		want, wantErr := refDecode(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("direct decoder: %v; reference: %v", gotErr, wantErr)
		}
		if gotErr == nil {
			samePoints(t, got, want)
			roundTrip(t, got)
		}

		pts := pointsOf(data)
		valid := true
		for i := 1; i < len(pts); i++ {
			if pts[i].AtNS < pts[i-1].AtNS || uint64(pts[i].AtNS)-uint64(pts[0].AtNS) > math.MaxInt64 {
				valid = false
			}
		}
		if err := WriteSampleFrame(io.Discard, pts); (err == nil) != valid {
			t.Fatalf("encoder on a valid=%v point set: %v", valid, err)
		}
		if valid {
			roundTrip(t, pts)
		}
	})
}

// roundTrip encodes pts and checks that both decoders and the raw
// reader give them back.
func roundTrip(t *testing.T, pts []SamplePoint) {
	t.Helper()
	if len(pts) == 0 {
		return // empty batches write nothing
	}
	var buf bytes.Buffer
	if err := WriteSampleFrame(&buf, pts); err != nil {
		t.Fatalf("encoding decoded points: %v", err)
	}
	got, err := ReadSampleFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatalf("decoding the encoder's frame: %v", err)
	}
	samePoints(t, got, pts)
	_, n := binary.Uvarint(buf.Bytes())
	ref, err := refDecode(buf.Bytes()[n:])
	if err != nil {
		t.Fatalf("reference on the encoder's frame: %v", err)
	}
	samePoints(t, ref, pts)
	raw, count, err := ReadRawSampleFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())), nil)
	if err != nil || count != len(pts) || !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("raw read: %d points, %d bytes of %d, %v", count, len(raw), buf.Len(), err)
	}
}

// TestSampleFrameAllocations pins the steady state of the stream path:
// a frame is encoded in pooled memory, and decoding allocates the
// points it returns and nothing that grows with them.
func TestSampleFrameAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	pts := goldenFrames()[2]
	if n := testing.AllocsPerRun(100, func() {
		if err := WriteSampleFrame(io.Discard, pts); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteSampleFrame: %v allocations per frame, want 0", n)
	}
	var frame bytes.Buffer
	if err := WriteSampleFrame(&frame, pts); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(frame.Bytes())
		br.Reset(rd)
		if _, err := ReadSampleFrame(br); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ReadSampleFrame: %v allocations per frame, want at most 2", n)
	}
}

// TestRawFrameChecksAsDecoded: the relay's read refuses what
// ReadSampleFrame refuses, with the same error — a timestamp past either
// end of the int64 range included — and counts the points ReadSampleFrame
// returns, building none: once its buffers are warm, it allocates
// nothing.
func TestRawFrameChecksAsDecoded(t *testing.T) {
	bodies := map[string][]byte{
		"empty":  []byte("BLTRC\x02\x00\x00\x00\x00\x00"),
		"behind": []byte("BLTRC\x02\x00\x00\x00\x00\x02\x02\x01\x7f\x00\x00"),
	}
	for i, pts := range goldenFrames() {
		var buf bytes.Buffer
		if err := WriteSampleFrame(&buf, pts); err != nil {
			t.Fatal(err)
		}
		_, n := binary.Uvarint(buf.Bytes())
		bodies[fmt.Sprint("golden ", i)] = buf.Bytes()[n:]
		bodies[fmt.Sprint("golden ", i, " truncated")] = buf.Bytes()[n : buf.Len()-1]
	}
	for name, at := range map[string]time.Time{"late": maxAt, "early": minAt.Add(-time.Nanosecond)} {
		s := trace.NewSeries(SampleStreamSeriesName, SampleStreamUnit)
		s.MustAppend(at, 1)
		s.MustAppend(at.Add(time.Nanosecond), 2)
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		bodies[name] = buf.Bytes()
	}
	refused := 0
	for name, body := range bodies {
		pts, err := ReadSampleFrame(bufio.NewReader(bytes.NewReader(frameOf(body))))
		raw, n, rawErr := ReadRawSampleFrame(bufio.NewReader(bytes.NewReader(frameOf(body))), nil)
		if fmt.Sprint(rawErr) != fmt.Sprint(err) || n != len(pts) || !bytes.Equal(raw, frameOf(body)) {
			t.Errorf("%s: raw read counts %d (%v), ReadSampleFrame gives %d (%v)", name, n, rawErr, len(pts), err)
		}
		if err != nil && strings.Contains(err.Error(), "int64 nanosecond range") {
			refused++
		}
	}
	if refused != 2 {
		t.Errorf("%d frames refused for their range, want late and early", refused)
	}

	if raceEnabled {
		return // sync.Pool sheds entries under the race detector
	}
	frame := frameOf(bodies["golden 2"])
	raw := make([]byte, 0, len(frame))
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(frame)
		br.Reset(rd)
		if _, _, err := ReadRawSampleFrame(br, raw); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadRawSampleFrame: %v allocations per frame, want 0", n)
	}
}

// TestHostileLengthsAllocateNothing: what a peer states — a frame
// length, a sample count — sizes no allocation the bytes it actually
// sent do not back.
func TestHostileLengthsAllocateNothing(t *testing.T) {
	body := []byte("BLTRC\x02\x04live\x02mA\x00\x00")
	body = binary.AppendUvarint(body, 30<<20) // 30 Mi samples …
	body = append(body, 1, 0, 0)              // … in three bytes
	for name, frame := range map[string][]byte{
		"frame length": append(binary.AppendUvarint(nil, maxFrameBytes), body...),
		"sample count": frameOf(body),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSampleFrame(bufio.NewReader(bytes.NewReader(frame)))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: hostile frame decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: %d bytes allocated for a %d-byte input", name, grew, len(frame))
		}
	}
	if _, err := ReadSampleFrame(bufio.NewReader(bytes.NewReader(binary.AppendUvarint(nil, maxFrameBytes+1)))); err == nil {
		t.Error("a length past the frame bound was accepted")
	}
}
