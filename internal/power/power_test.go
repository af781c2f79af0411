package power

import (
	"math"
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
	if got := r.CurrentMA(now); got != 42 {
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
	if got := r.CurrentMA(now); got != 0 {
		t.Fatalf("rail after detach = %v", got)
	}
	r.Detach("missing") // no-op
}

func TestRailIgnoresNegative(t *testing.T) {
	r := NewRail()
	r.Attach(NewConstant("bad", -5))
	r.Attach(NewConstant("good", 7))
	if got := r.CurrentMA(now); got != 7 {
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
	s := NewSwitched("screen", SourceFunc(func(time.Time) float64 { return 90 }))
	if s.On() {
		t.Fatal("switched starts on")
	}
	if got := s.CurrentMA(now); got != 0 {
		t.Fatalf("off draw = %v", got)
	}
	s.SetOn(true)
	if got := s.CurrentMA(now); got != 90 {
		t.Fatalf("on draw = %v", got)
	}
	s.SetOn(false)
	if got := s.CurrentMA(now); got != 0 {
		t.Fatalf("re-off draw = %v", got)
	}
}

func TestScaled(t *testing.T) {
	s := NewScaled("loss", SourceFunc(func(time.Time) float64 { return 100 }), 1.005)
	if got := s.CurrentMA(now); math.Abs(got-100.5) > 1e-9 {
		t.Fatalf("scaled = %v", got)
	}
}

func TestSourceFunc(t *testing.T) {
	var called bool
	f := SourceFunc(func(time.Time) float64 { called = true; return 1 })
	if f.CurrentMA(now) != 1 || !called {
		t.Fatal("SourceFunc adapter broken")
	}
}

func TestRailEmptyIsZero(t *testing.T) {
	if got := NewRail().CurrentMA(now); got != 0 {
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
		if got := r.CurrentMA(time.Time{}); got != 1e16+2 {
			t.Fatalf("sum = %.0f, want %.0f", got, 1e16+2)
		}
	}
}

// NewScaled returns a component reporting gain × src.
func NewScaled(name string, src Source, gain float64) *Scaled {
	return &Scaled{name: name, src: src, gain: gain}
}

// Detach removes a component by name. Detaching an absent component is a
// no-op.
func (r *Rail) Detach(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.findLocked(name); ok {
		r.components = slices.Delete(r.components, i, i+1)
	}
}

// Breakdown reports each component's instantaneous draw, sorted by name —
// the data behind per-component attribution in experiment reports.
func (r *Rail) Breakdown(now time.Time) []Draw {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Draw, 0, len(r.components))
	for _, c := range r.components {
		out = append(out, Draw{Name: c.Name(), MA: c.CurrentMA(now)})
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
	name string
	src  Source
	gain float64
}

// Name implements Component.
func (s *Scaled) Name() string { return s.name }

// CurrentMA implements Source.
func (s *Scaled) CurrentMA(now time.Time) float64 {
	return s.gain * s.src.CurrentMA(now)
}
