package power

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

var now = time.Date(2019, 11, 13, 9, 0, 0, 0, time.UTC)

func TestRailSumsComponents(t *testing.T) {
	r := NewRail()
	if err := r.Attach(NewConstant("a", 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(NewConstant("b", 32)); err != nil {
		t.Fatal(err)
	}
	if got := At(r, now); got != 42 {
		t.Fatalf("rail = %v, want 42", got)
	}
}

func TestRailDuplicateAttach(t *testing.T) {
	r := NewRail()
	if err := r.Attach(NewConstant("cpu", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(NewConstant("cpu", 2)); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestRailDetach(t *testing.T) {
	r := NewRail()
	r.Attach(NewConstant("a", 10))
	r.Detach("a")
	if got := At(r, now); got != 0 {
		t.Fatalf("rail after detach = %v", got)
	}
	r.Detach("missing") // no-op
}

func TestRailIgnoresNegative(t *testing.T) {
	r := NewRail()
	r.Attach(NewConstant("bad", -5))
	r.Attach(NewConstant("good", 7))
	if got := At(r, now); got != 7 {
		t.Fatalf("rail = %v, want 7 (negative clamped)", got)
	}
}

func TestRailBreakdownSorted(t *testing.T) {
	r := NewRail()
	r.Attach(NewConstant("screen", 90))
	r.Attach(NewConstant("cpu", 50))
	bd := r.Breakdown(now)
	if len(bd) != 2 || bd[0].Name != "cpu" || bd[1].Name != "screen" {
		t.Fatalf("breakdown = %+v", bd)
	}
	if bd[0].MA != 50 || bd[1].MA != 90 {
		t.Fatalf("breakdown values = %+v", bd)
	}
}

func TestSwitchedGate(t *testing.T) {
	s := NewSwitched(NewConstant("screen", 90))
	if s.On() {
		t.Fatal("switched starts on")
	}
	if got := drawAt(s, now); got != 0 {
		t.Fatalf("off draw = %v", got)
	}
	s.SetOn(true)
	if got := drawAt(s, now); got != 90 {
		t.Fatalf("on draw = %v", got)
	}
	s.SetOn(false)
	if got := drawAt(s, now); got != 0 {
		t.Fatalf("re-off draw = %v", got)
	}
}

func TestScaled(t *testing.T) {
	s := NewScaled(SourceFunc(func(time.Time) float64 { return 100 }), 1.005)
	if got := At(s, now); math.Abs(got-100.5) > 1e-9 {
		t.Fatalf("scaled = %v", got)
	}
}

func TestSourceFunc(t *testing.T) {
	var called bool
	f := SourceFunc(func(time.Time) float64 { called = true; return 1 })
	if At(f, now) != 1 || !called {
		t.Fatal("SourceFunc adapter broken")
	}
}

func TestRailEmptyIsZero(t *testing.T) {
	if got := At(NewRail(), now); got != 0 {
		t.Fatalf("empty rail = %v", got)
	}
}

// The rail adds its components by name, not in map or attach order: with
// these three draws the float sum depends on the order (1e16+1+1 loses
// both ones, 1+1+1e16 keeps them).
func TestRailSumsInNameOrder(t *testing.T) {
	big, one, uno := NewConstant("c-big", 1e16), NewConstant("a-one", 1), NewConstant("b-one", 1)
	for _, order := range [][]Component{{big, one, uno}, {one, uno, big}, {uno, big, one}} {
		r := NewRail()
		extra := NewConstant("0-extra", 5)
		for _, c := range append(order, extra) {
			if err := r.Attach(c); err != nil {
				t.Fatal(err)
			}
		}
		r.Detach("0-extra")
		r.Detach("absent")
		if got := At(r, time.Time{}); got != 1e16+2 {
			t.Fatalf("sum = %.0f, want %.0f", got, 1e16+2)
		}
	}
}

// NewScaled returns a source reporting gain × src.
func NewScaled(src Source, gain float64) *Scaled {
	return &Scaled{src: src, gain: gain}
}

// Detach removes a component by name. Detaching an absent component is a
// no-op.
func (r *Rail) Detach(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := *r.components.Load()
	if i, ok := find(cs, name); ok {
		cs = slices.Delete(slices.Clone(cs), i, i+1)
		r.components.Store(&cs)
	}
}

// Breakdown reports each component's instantaneous draw, sorted by name —
// the data behind per-component attribution in experiment reports.
func (r *Rail) Breakdown(now time.Time) []Draw {
	cs := *r.components.Load()
	out := make([]Draw, 0, len(cs))
	for _, c := range cs {
		out = append(out, Draw{Name: c.Name(), MA: drawAt(c, now)})
	}
	return out
}

// Draw is one component's contribution at an instant.
type Draw struct {
	Name string
	MA   float64
}

// Scaled multiplies a source by a gain, used for modelling voltage
// conversion losses and the relay's contact resistance.
type Scaled struct {
	src  Source
	gain float64
}

// ReadMA implements Source.
func (s *Scaled) ReadMA(first time.Time, step time.Duration, out []float64) {
	s.src.ReadMA(first, step, out)
	for j := range out {
		out[j] *= s.gain
	}
}

// drawAt is c's draw at one instant, as a rail adds it.
func drawAt(c Component, now time.Time) float64 {
	var v [1]float64
	c.AddMA(now, 0, v[:])
	return v[0]
}

// EachEpoch cuts a run into maximal stretches of one epoch each, and
// Before finds where a run crosses an instant, for any start — before
// 1970 too, where the epoch division truncates toward zero — and any
// step, as reading each instant alone finds them.
func TestRunSplitsMatchInstants(t *testing.T) {
	rnd := rand.New(rand.NewPCG(7, 11))
	const epoch = 100 * time.Millisecond
	for range 2000 {
		first := time.Unix(0, rnd.Int64N(int64(4*time.Second))-int64(2*time.Second))
		step := time.Duration(rnd.Int64N(int64(30 * time.Millisecond)))
		n := 1 + rnd.IntN(64)
		at := func(j int) time.Time { return first.Add(time.Duration(j) * step) }

		next := 0
		EachEpoch(first, step, epoch, n, func(e int64, lo, hi int) {
			if lo != next || hi <= lo || hi > n {
				t.Fatalf("stretch [%d, %d) after %d of %d", lo, hi, next, n)
			}
			for j := lo; j < hi; j++ {
				if got := at(j).UnixNano() / int64(epoch); got != e {
					t.Fatalf("instant %d of [%d, %d) is in epoch %d, stretch says %d", j, lo, hi, got, e)
				}
			}
			if hi < n && at(hi).UnixNano()/int64(epoch) == e {
				t.Fatalf("stretch [%d, %d) of epoch %d stops short", lo, hi, e)
			}
			next = hi
		})
		if next != n {
			t.Fatalf("stretches cover %d of %d instants", next, n)
		}

		mark := first.Add(time.Duration(rnd.Int64N(int64(2*time.Second))) - time.Second)
		want := 0
		for want < n && at(want).Before(mark) {
			want++
		}
		if got := Before(first, step, n, mark); got != want {
			t.Fatalf("Before(%v, %v, %d, %v) = %d, want %d", first, step, n, mark, got, want)
		}
	}
}
