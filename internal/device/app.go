package device

import (
	"fmt"
	"sort"
)

// App is an installed application model. Workload apps (the browsers in
// internal/browser, the video player in internal/video) implement this
// interface and manipulate the device's components — processes, radios,
// framebuffer — to reproduce their power footprint.
type App interface {
	// PackageName is the Android package id, e.g. "com.brave.browser".
	PackageName() string
	// Launch brings the app to the foreground, spawning its processes.
	Launch(d *Device) error
	// Stop force-stops the app, killing its processes.
	Stop(d *Device) error
	// ClearData resets app state (pm clear): caches, sign-in, first-run
	// dialogs.
	ClearData(d *Device) error
	// HandleInput delivers a user input event while foregrounded.
	HandleInput(d *Device, ev InputEvent) error
}

// InputKind classifies input events.
type InputKind int

// Input kinds, covering what `adb shell input` and a Bluetooth HID
// keyboard can deliver.
const (
	InputTap InputKind = iota
	InputKey
	InputText
	InputScroll
)

func (k InputKind) String() string {
	switch k {
	case InputTap:
		return "tap"
	case InputKey:
		return "key"
	case InputText:
		return "text"
	default:
		return "scroll"
	}
}

// InputEvent is one user interaction.
type InputEvent struct {
	Kind InputKind
	X, Y int    // tap coordinates
	Key  string // key name (KEYCODE_ENTER, ...)
	Text string // text payload
	// ScrollDown is the scroll direction when Kind == InputScroll.
	ScrollDown bool
}

// Install registers an app on the device.
func (d *Device) Install(app App) error {
	if app == nil {
		return fmt.Errorf("device: nil app")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	pkg := app.PackageName()
	if _, dup := d.apps[pkg]; dup {
		return fmt.Errorf("device: package %s already installed", pkg)
	}
	d.apps[pkg] = app
	d.logcat.Append("PackageManager", Info, "installed "+pkg)
	return nil
}

// Uninstall removes an app, stopping it first if foregrounded.
func (d *Device) Uninstall(pkg string) error {
	d.mu.Lock()
	app, ok := d.apps[pkg]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("device: package %s not installed", pkg)
	}
	fg := d.foreground == pkg
	delete(d.apps, pkg)
	if fg {
		d.foreground = ""
	}
	d.mu.Unlock()
	if fg {
		if err := app.Stop(d); err != nil {
			return err
		}
	}
	d.logcat.Append("PackageManager", Info, "uninstalled "+pkg)
	return nil
}

// Packages lists installed package names, sorted.
func (d *Device) Packages() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.apps))
	for pkg := range d.apps {
		out = append(out, pkg)
	}
	sort.Strings(out)
	return out
}

// LaunchApp foregrounds pkg (am start). Any previous foreground app is
// stopped first — the workload scripts drive one app at a time.
func (d *Device) LaunchApp(pkg string) error {
	d.mu.Lock()
	if !d.supply.Load().booted {
		d.mu.Unlock()
		return fmt.Errorf("device: not booted")
	}
	app, ok := d.apps[pkg]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("device: package %s not installed", pkg)
	}
	prevPkg := d.foreground
	var prev App
	if prevPkg != "" && prevPkg != pkg {
		prev = d.apps[prevPkg]
	}
	d.mu.Unlock()

	if prev != nil {
		if err := prev.Stop(d); err != nil {
			return fmt.Errorf("device: stopping %s: %w", prevPkg, err)
		}
	}
	if err := app.Launch(d); err != nil {
		return err
	}
	d.mu.Lock()
	d.foreground = pkg
	d.mu.Unlock()
	d.logcat.Append("ActivityManager", Info, "START "+pkg)
	return nil
}

// StopApp force-stops pkg (am force-stop).
func (d *Device) StopApp(pkg string) error {
	d.mu.Lock()
	app, ok := d.apps[pkg]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("device: package %s not installed", pkg)
	}
	if d.foreground == pkg {
		d.foreground = ""
	}
	d.mu.Unlock()
	if err := app.Stop(d); err != nil {
		return err
	}
	d.logcat.Append("ActivityManager", Info, "force-stop "+pkg)
	return nil
}

// ClearAppData resets pkg's state (pm clear).
func (d *Device) ClearAppData(pkg string) error {
	d.mu.Lock()
	app, ok := d.apps[pkg]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("device: package %s not installed", pkg)
	}
	return app.ClearData(d)
}

// Foreground reports the foreground package, or "".
func (d *Device) Foreground() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.foreground
}

// Input delivers a user event to the foreground app. Events on a dark
// screen wake it instead (Android behaviour).
func (d *Device) Input(ev InputEvent) error {
	d.mu.Lock()
	if !d.supply.Load().booted {
		d.mu.Unlock()
		return fmt.Errorf("device: not booted")
	}
	fgPkg := d.foreground
	app := d.apps[fgPkg]
	d.mu.Unlock()

	if !d.screen.On() {
		d.screen.SetOn(true)
		d.logcat.Append("input", Debug, "wake")
		return nil
	}
	if app == nil {
		d.logcat.Append("input", Debug, "event on launcher: "+ev.Kind.String())
		return nil
	}
	return app.HandleInput(d, ev)
}

// FactoryReset wipes storage, uninstalls all apps and reboots — the
// maintenance job the access server runs between experimenters.
func (d *Device) FactoryReset() error {
	d.mu.Lock()
	booted := d.supply.Load().booted
	d.apps = make(map[string]App)
	d.foreground = ""
	d.mu.Unlock()
	d.store.Wipe()
	d.logcat.Clear()
	if booted {
		if err := d.Shutdown(); err != nil {
			return err
		}
	}
	return d.Boot()
}
