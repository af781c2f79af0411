package trace

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// checkFixed6 compares appendFixed6 with its oracle, appending after a
// prefix so a helper that forgets where its number starts is caught too.
func checkFixed6(t *testing.T, v float64) {
	t.Helper()
	prefix := []byte("x,")
	got := appendFixed6(append([]byte(nil), prefix...), v)
	want := strconv.AppendFloat(append([]byte(nil), prefix...), v, 'f', 6, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendFixed6(%v [%#x]) = %q, strconv gives %q", v, math.Float64bits(v), got, want)
	}
}

// fixed6Edges is what reaches each branch of appendFixed6 and the edges
// between them: the table TestAppendFixed6 pins to strconv and the seed
// corpus FuzzAppendFixed6 starts from.
var fixed6Edges = []float64{
	// Integer branch: Monsoon readings (k/10 mA), 200 µs offsets, both zeros.
	0, math.Copysign(0, -1), 0.1, 33.4, -33.4, 5999.9, 6000, 0.0002, 0.0004, 33.4998, 1e-6, -1e-6,
	0.3, 123456.789012, 33.5, 4, -4, 999999.999999,
	// Its upper edge, 2³¹ and what sits either side of it.
	1 << 31, -(1 << 31), 1<<31 - 0.5, 1<<31 + 0.5, math.Nextafter(1<<31, 0), math.Nextafter(1<<31, math.Inf(1)),
	math.Nextafter(-(1 << 31), 0), 2147483647.999999, 2147483647.9999995,
	// A seventh decimal of exactly 5 (a tie only in decimal: the double is
	// a little to one side) and its neighbours.
	5e-7, -5e-7, 1.5e-6, 2.5e-6, 0.1234565, 0.1234575, 999999.9999995, 0.0000005000000001, 4.9999999e-7,
	math.Nextafter(0.1234565, 0), math.Nextafter(0.1234565, 1),
	// One ulp off a six-decimal number: the division no longer gives v back.
	math.Nextafter(33.4, 34), math.Nextafter(33.4, 33), math.Nextafter(0.0002, 1), math.Nextafter(1e-6, 0),
	// More than six decimals, too small to show, too large for the branch.
	1.0 / 3, 1e-7, -1e-7, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x0.8p-1022,
	1e21, -1e21, 1e22, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendFixed6(t *testing.T) {
	for _, v := range fixed6Edges {
		checkFixed6(t, v)
	}
	// What a Monsoon trace holds: currents quantised to 0.1 mA up to the
	// 6 A envelope, and elapsed seconds at multiples of the 200 µs period.
	for i := 0; i <= 60000; i++ {
		checkFixed6(t, float64(int64(i))/10)
	}
	for i := 0; i < 200000; i++ {
		checkFixed6(t, (time.Duration(i) * 200 * time.Microsecond).Seconds())
	}
}

func FuzzAppendFixed6(f *testing.F) {
	for _, v := range fixed6Edges {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		checkFixed6(t, v)
		// Also near the values traces hold, where the integer branch is
		// taken: fold the mantissa into a six-decimal number plus a few ulps.
		near := float64(int64(bits>>20)%4_000_000_000) / 1e6
		for k := 0; k < int(bits&3); k++ {
			near = math.Nextafter(near, math.Inf(1))
		}
		checkFixed6(t, near)
		checkFixed6(t, -near)
	})
}

// TestWriteCSVMatchesStrconv writes a series whose values need the exact
// path as well as the fast one and compares the file with one assembled
// from strconv calls, as WriteCSV produced it before the row helper.
func TestWriteCSVMatchesStrconv(t *testing.T) {
	vals := []float64{0, 33.4, 1.0 / 3, 5999.9, 1e-7, 2.5e-6, 1e10, 6000}
	s := NewSeries("current", "mA")
	var want strings.Builder
	want.WriteString("elapsed_s,current_mA\n")
	// Enough rows to fill WriteCSV's write buffer many times over.
	for i := 0; i < 5000; i++ {
		off := time.Duration(i) * 200 * time.Microsecond
		v := vals[i%len(vals)]
		s.MustAppend(t0.Add(off), v)
		want.WriteString(strconv.FormatFloat(off.Seconds(), 'f', 6, 64))
		want.WriteByte(',')
		want.WriteString(strconv.FormatFloat(v, 'f', 6, 64))
		want.WriteByte('\n')
	}
	var got bytes.Buffer
	if err := s.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("WriteCSV output differs from the strconv reference")
	}
	back, err := ReadCSV(&got, "current", "mA", t0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("round trip len = %d, want %d", back.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		w := s.At(i)
		// Six decimals is all the file keeps of a value or an instant.
		if g := back.At(i); g.T.Sub(w.T).Abs() > time.Microsecond || math.Abs(g.V-w.V) > 1e-6 {
			t.Fatalf("sample %d = %v, want %v", i, g, w)
		}
	}
}

// A series name is free text: the header still goes through encoding/csv,
// so a comma in it is quoted and the file stays two columns wide.
func TestCSVHeaderQuoted(t *testing.T) {
	s := NewSeries("current, bypass", "mA")
	s.MustAppend(t0, 12.5)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "elapsed_s,\"current, bypass_mA\"\n0.000000,12.500000\n"; buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
	got, err := ReadCSV(&buf, "current, bypass", "mA", t0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.At(0).V != 12.5 {
		t.Fatalf("round trip = %d samples", got.Len())
	}
}

func TestReadCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":        "",
		"short row":    "elapsed_s,current_mA\n0.000000\n",
		"bad number":   "elapsed_s,current_mA\n0.000000,abc\n",
		"out of order": "elapsed_s,current_mA\n1.000000,1\n0.500000,1\n",
	} {
		if _, err := ReadCSV(strings.NewReader(in), "current", "mA", t0); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after -= len(p); w.after < 0 {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

func TestWriteCSVReportsWriteError(t *testing.T) {
	s := NewSeries("current", "mA")
	for i := 0; i < 10000; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*time.Millisecond), 1)
	}
	for _, after := range []int{0, 100, 40 << 10} {
		if err := s.WriteCSV(&failingWriter{after: after}); err == nil {
			t.Errorf("writer failing after %d bytes: no error", after)
		}
	}
}
