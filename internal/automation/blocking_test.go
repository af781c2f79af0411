package automation

import (
	"errors"
	"testing"
	"time"

	"batterylab/internal/simclock"
)

func TestRunBlockingOnRealClock(t *testing.T) {
	var order []string
	s := NewScript("real").
		Add("a", time.Millisecond, func() error { order = append(order, "a"); return nil }).
		Add("b", time.Millisecond, func() error { order = append(order, "b"); return nil })
	done := make(chan error, 1)
	NewExecutor(simclock.Real()).Run(s, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestRunBlockingError(t *testing.T) {
	s := NewScript("fail").
		Add("boom", 0, func() error { return errors.New("nope") })
	done := make(chan error, 1)
	NewExecutor(simclock.Real()).Run(s, func(err error) { done <- err })
	if err := <-done; err == nil {
		t.Fatal("error swallowed")
	}
}

func TestAbortAfterCompletionIsNoop(t *testing.T) {
	clk := simclock.NewVirtual()
	done := 0
	run := NewExecutor(clk).Run(NewScript("quick"), func(error) { done++ })
	run.Abort() // already complete: done must not fire twice
	if done != 1 {
		t.Fatalf("done fired %d times", done)
	}
}

func TestScriptSleepOnly(t *testing.T) {
	clk := simclock.NewVirtual()
	finished := false
	s := NewScript("nap").Sleep(3 * time.Second)
	NewExecutor(clk).Run(s, func(err error) { finished = err == nil })
	clk.Advance(2 * time.Second)
	if finished {
		t.Fatal("finished early")
	}
	clk.Advance(2 * time.Second)
	if !finished {
		t.Fatal("never finished")
	}
}

func TestUnsupportedActionError(t *testing.T) {
	e := &ErrUnsupportedAction{Driver: KindBTKeyboard, Action: "tap"}
	if e.Error() != "automation: bt-keyboard cannot tap" {
		t.Fatalf("msg = %q", e.Error())
	}
	if KindADB.String() != "adb" || KindUITest.String() != "uitest" {
		t.Fatal("kind strings")
	}
}
