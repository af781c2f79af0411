package gpio

import (
	"fmt"
	"testing"
)

func TestConfigureAndWrite(t *testing.T) {
	b := NewBank(4)
	if err := b.Configure(0, Output); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0, High); err != nil {
		t.Fatal(err)
	}
	lv, err := b.Read(0)
	if err != nil || lv != High {
		t.Fatalf("Read = %v, %v", lv, err)
	}
}

func TestWriteUnconfigured(t *testing.T) {
	b := NewBank(2)
	if err := b.Write(0, High); err == nil {
		t.Fatal("write to unconfigured pin accepted")
	}
}

func TestWriteInputPin(t *testing.T) {
	b := NewBank(2)
	b.Configure(0, Input)
	if err := b.Write(0, High); err == nil {
		t.Fatal("write to input pin accepted")
	}
}

func TestReadUnconfigured(t *testing.T) {
	b := NewBank(2)
	if _, err := b.Read(1); err == nil {
		t.Fatal("read of unconfigured pin accepted")
	}
}

func TestOutOfRange(t *testing.T) {
	b := NewBank(2)
	if err := b.Configure(5, Output); err == nil {
		t.Fatal("out-of-range configure accepted")
	}
	if err := b.Configure(-1, Output); err == nil {
		t.Fatal("negative pin accepted")
	}
	if _, err := b.Read(2); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

func TestSetInput(t *testing.T) {
	b := NewBank(2)
	b.Configure(1, Input)
	if err := b.SetInput(1, High); err != nil {
		t.Fatal(err)
	}
	lv, _ := b.Read(1)
	if lv != High {
		t.Fatal("input level not visible")
	}
	b.Configure(0, Output)
	if err := b.SetInput(0, High); err == nil {
		t.Fatal("SetInput on output pin accepted")
	}
}

func TestWatcherFiresOnChange(t *testing.T) {
	b := NewBank(1)
	b.Configure(0, Output)
	var events []Level
	b.Watch(0, func(l Level) { events = append(events, l) })
	b.Write(0, High)
	b.Write(0, High) // no change, no event
	b.Write(0, Low)
	if len(events) != 2 || events[0] != High || events[1] != Low {
		t.Fatalf("events = %v", events)
	}
}

func TestReconfigureResetsLevel(t *testing.T) {
	b := NewBank(1)
	b.Configure(0, Output)
	b.Write(0, High)
	b.Configure(0, Output)
	lv, _ := b.Read(0)
	if lv != Low {
		t.Fatal("reconfigure did not reset level")
	}
}

func TestInvalidDirection(t *testing.T) {
	b := NewBank(1)
	if err := b.Configure(0, Unconfigured); err == nil {
		t.Fatal("configuring to Unconfigured accepted")
	}
}

func TestStrings(t *testing.T) {
	if High.String() != "high" || Low.String() != "low" {
		t.Fatal("Level strings")
	}
	if Input.String() != "in" || Output.String() != "out" || Unconfigured.String() != "unconfigured" {
		t.Fatal("Direction strings")
	}
}

// Read reports a configured pin's level.
func (b *Bank) Read(n int) (Level, error) {
	if err := b.check(n); err != nil {
		return Low, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pins[n].dir == Unconfigured {
		return Low, fmt.Errorf("gpio: read of unconfigured pin %d", n)
	}
	return b.pins[n].level, nil
}

// SetInput drives an input pin externally (a sensor or switch on the
// header), visible to subsequent Reads.
func (b *Bank) SetInput(n int, level Level) error {
	if err := b.check(n); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pins[n].dir != Input {
		return fmt.Errorf("gpio: SetInput on non-input pin %d", n)
	}
	b.pins[n].level = level
	return nil
}
