package battery

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func newTest(t *testing.T) *Battery {
	t.Helper()
	b, err := New(Config{CapacityMAH: 3000, NominalVoltage: 3.85})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{CapacityMAH: 0, NominalVoltage: 3.85}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(Config{CapacityMAH: 3000, NominalVoltage: -1}); err == nil {
		t.Fatal("negative voltage accepted")
	}
}

func TestStartsFull(t *testing.T) {
	b := newTest(t)
	if b.SoC() != 1 {
		t.Fatalf("SoC = %v, want 1", b.SoC())
	}
	if b.ChargeMAH() != 3000 {
		t.Fatalf("charge = %v", b.ChargeMAH())
	}
}

func TestDrain(t *testing.T) {
	b := newTest(t)
	got, err := b.Drain(500)
	if err != nil || got != 500 {
		t.Fatalf("Drain = %v, %v", got, err)
	}
	if b.ChargeMAH() != 2500 {
		t.Fatalf("charge = %v", b.ChargeMAH())
	}
}

func TestDrainClampsAtEmpty(t *testing.T) {
	b := newTest(t)
	got, err := b.Drain(5000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3000 {
		t.Fatalf("drained %v, want 3000", got)
	}
	if b.SoC() != 0 {
		t.Fatalf("SoC = %v", b.SoC())
	}
}

func TestDrainNegative(t *testing.T) {
	b := newTest(t)
	if _, err := b.Drain(-1); err == nil {
		t.Fatal("negative drain accepted")
	}
}

func TestChargeClampsAtFull(t *testing.T) {
	b := newTest(t)
	b.Drain(100)
	stored, err := b.Charge(500)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 100 {
		t.Fatalf("stored %v, want 100", stored)
	}
	if b.SoC() != 1 {
		t.Fatalf("SoC = %v", b.SoC())
	}
}

func TestDetachAttachCycle(t *testing.T) {
	b := newTest(t)
	if !b.Attached() {
		t.Fatal("starts detached")
	}
	if err := b.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := b.Detach(); err == nil {
		t.Fatal("double detach accepted")
	}
	if _, err := b.Drain(10); err == nil {
		t.Fatal("drain while detached accepted")
	}
	if err := b.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(); err == nil {
		t.Fatal("double attach accepted")
	}
}

func TestVoltageCurveMonotonic(t *testing.T) {
	b := newTest(t)
	prev := math.Inf(1)
	for soc := 1.0; soc >= 0; soc -= 0.01 {
		b.chargeMAH = soc * b.capacityMAH
		v := b.VoltageV()
		if v > prev+1e-9 {
			t.Fatalf("voltage not monotonic at SoC %.2f: %v > %v", soc, v, prev)
		}
		prev = v
	}
}

func TestVoltageEndpoints(t *testing.T) {
	b := newTest(t)
	if v := b.VoltageV(); math.Abs(v-4.35) > 0.01 {
		t.Fatalf("full voltage = %v, want ~4.35", v)
	}
	b.chargeMAH = 0
	if v := b.VoltageV(); math.Abs(v-3.0) > 0.01 {
		t.Fatalf("empty voltage = %v, want ~3.0", v)
	}
}

func TestVoltageNearNominalMidCurve(t *testing.T) {
	b := newTest(t)
	b.chargeMAH = 0.5 * b.capacityMAH
	if v := b.VoltageV(); math.Abs(v-3.80) > 0.05 {
		t.Fatalf("mid voltage = %v, want ~3.8", v)
	}
}

func TestChargeConservationProperty(t *testing.T) {
	if err := quick.Check(func(drains []float64) bool {
		b, _ := New(Config{CapacityMAH: 3000, NominalVoltage: 3.85})
		var total float64
		for _, d := range drains {
			d = math.Abs(math.Mod(d, 100))
			got, err := b.Drain(d)
			if err != nil {
				return false
			}
			total += got
		}
		return math.Abs((3000-total)-b.ChargeMAH()) < 1e-6 && b.ChargeMAH() >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Charge adds mah of charge, clamped at capacity, and reports the charge
// actually stored.
func (b *Battery) Charge(mah float64) (float64, error) {
	if mah < 0 {
		return 0, fmt.Errorf("battery: negative charge %v", mah)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	stored := mah
	if b.chargeMAH+stored > b.capacityMAH {
		stored = b.capacityMAH - b.chargeMAH
	}
	b.chargeMAH += stored
	return stored, nil
}
