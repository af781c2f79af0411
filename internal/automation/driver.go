package automation

import (
	"time"
)

// Kind identifies the automation strategy.
type Kind int

// The three strategies of §3.3. The platform drives devices over ADB;
// the UI-test and Bluetooth-keyboard drivers are modelled beside the
// package's tests (uidriver_test.go, btdriver_test.go).
const (
	KindADB Kind = iota
	KindUITest
	KindBTKeyboard
)

func (k Kind) String() string {
	switch k {
	case KindADB:
		return "adb"
	case KindUITest:
		return "uitest"
	default:
		return "bt-keyboard"
	}
}

// Capabilities describes what a driver configuration can and cannot do —
// the trade-off table of §3.3.
type Capabilities struct {
	// SupportsMirroring: device mirroring requires ADB (scrcpy runs atop
	// it), so the BT keyboard cannot drive a mirrored session.
	SupportsMirroring bool
	// MeasurementSafe: the channel does not perturb the power monitor
	// (USB does, via the micro-controller activation current).
	MeasurementSafe bool
	// CellularSafe: the workload can use the mobile network (ADB-over-
	// WiFi occupies the WiFi path, so it is not cellular-safe).
	CellularSafe bool
	// RequiresRoot: ADB-over-Bluetooth needs a rooted device.
	RequiresRoot bool
	// RequiresAppSource: UI testing rebuilds the app with test
	// instrumentation, so it only works for apps whose source is
	// available.
	RequiresAppSource bool
}

// Driver is one automation channel bound to one device. Every action
// returns the channel latency the script should account before the next
// action; unsupported actions return ErrUnsupported.
type Driver interface {
	Kind() Kind
	Serial() string
	Capabilities() Capabilities

	LaunchApp(pkg string) (time.Duration, error)
	StopApp(pkg string) (time.Duration, error)
	ClearApp(pkg string) (time.Duration, error)
	Tap(x, y int) (time.Duration, error)
	Key(key string) (time.Duration, error)
	TypeText(text string) (time.Duration, error)
	Scroll(down bool) (time.Duration, error)
}

// ErrUnsupported reports an action outside a driver's capability set.
type ErrUnsupportedAction struct {
	Driver Kind
	Action string
}

func (e *ErrUnsupportedAction) Error() string {
	return "automation: " + e.Driver.String() + " cannot " + e.Action
}
