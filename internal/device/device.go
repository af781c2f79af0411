// Package device models an Android test device — the phone wired into a
// BatteryLab vantage point. The model is component-based: a CPU with a
// process table, a screen, WiFi/cellular/Bluetooth radios, hardware codec
// blocks, storage, and a framebuffer whose change rate drives the screen
// mirroring encoder. Each component contributes to a power rail
// (internal/power) that the Monsoon model samples.
//
// The device draws from one supply path at a time: its removable battery,
// the power monitor's Vout (via the relay's battery bypass), or USB VBUS.
// The USB path is special: it keeps the device powered during setup but
// corrupts monitor readings, which is why BatteryLab automates over
// WiFi/Bluetooth during measurements (§3.3).
package device

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/battery"
	"batterylab/internal/power"
	"batterylab/internal/rng"
	"batterylab/internal/simclock"
)

// PowerPath identifies the active supply.
type PowerPath int

// Supply paths.
const (
	// PathNone means the device has no supply and is off.
	PathNone PowerPath = iota
	// PathBattery draws from the device's own battery.
	PathBattery
	// PathMonitor draws from the power monitor through the bypass.
	PathMonitor
	// PathUSB draws from USB VBUS.
	PathUSB
)

func (p PowerPath) String() string {
	switch p {
	case PathBattery:
		return "battery"
	case PathMonitor:
		return "monitor"
	case PathUSB:
		return "usb"
	default:
		return "none"
	}
}

// Config describes a test device.
type Config struct {
	Model    string // e.g. "Samsung J7 Duo"
	Serial   string // ADB serial
	OS       string // "android" (iOS is future work, as in the paper)
	APILevel int    // Android API level; mirroring needs >= 21
	Cores    int    // CPU core count
	Rooted   bool   // required for ADB-over-Bluetooth
	Battery  battery.Config
	Seed     uint64
}

// Default fills zero fields with the paper's first vantage point device, a
// Samsung J7 Duo running Android 8.0.
func (c Config) withDefaults() Config {
	if c.Model == "" {
		c.Model = "Samsung J7 Duo"
	}
	if c.Serial == "" {
		c.Serial = "J7DUO000001"
	}
	if c.OS == "" {
		c.OS = "android"
	}
	if c.APILevel == 0 {
		c.APILevel = 26 // Android 8.0
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.Battery.CapacityMAH == 0 {
		c.Battery.CapacityMAH = 3000
	}
	if c.Battery.NominalVoltage == 0 {
		c.Battery.NominalVoltage = 3.85
	}
	return c
}

// Device is a simulated phone. All methods are safe for concurrent use.
type Device struct {
	cfg   Config
	clock simclock.Clock
	rnd   *rng.RNG

	batt   *battery.Battery
	rail   *power.Rail
	cpu    *CPU
	screen *Screen
	wifi   *Radio
	cell   *Radio
	bt     *Radio
	store  *Storage
	logcat *Logcat
	fb     *Framebuffer

	mu sync.Mutex
	// supply is what the sampler reads; writers replace it under mu.
	supply      atomic.Pointer[supply]
	batteryPath bool // relay at battery position (vs monitor bypass)
	// monitorSupply tracks whether the monitor's Vout is actually live;
	// a bypassed device with a dead monitor has no power at all. The
	// vantage point wires this to the socket and Vout state; bare
	// devices default to a live bench supply.
	monitorSupply bool
	apps          map[string]App
	foreground    string
	// drain is the battery-drain ticker, armed exactly while the device
	// is booted on the battery path (armDrainLocked); bootAt is the boot its
	// ticks keep the phase of.
	drain     *simclock.Ticker
	bootAt    time.Time
	bootCount int
}

// supply is the device's published power state. A published one is never
// modified.
type supply struct {
	path       PowerPath
	booted     bool
	usbPowered bool
}

// New builds a device from cfg. The device starts powered by its battery
// and booted.
func New(clock simclock.Clock, cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	batt, err := battery.New(cfg.Battery)
	if err != nil {
		return nil, fmt.Errorf("device %s: %w", cfg.Serial, err)
	}
	d := &Device{
		cfg:           cfg,
		clock:         clock,
		rnd:           rng.New(cfg.Seed).Fork("device/" + cfg.Serial),
		batt:          batt,
		rail:          power.NewRail(),
		store:         NewStorage(),
		logcat:        NewLogcat(clock, 4096),
		apps:          make(map[string]App),
		batteryPath:   true,
		monitorSupply: true,
	}
	d.cpu = newCPU(clock, d.rnd, cfg.Cores)
	d.screen = newScreen()
	d.wifi = newRadio("wlan0", RadioWiFi, clock)
	d.cell = newRadio("rmnet0", RadioCellular, clock)
	d.bt = newRadio("bt0", RadioBluetooth, clock)
	d.fb = newFramebuffer()

	// Assemble the rail. Coefficients are calibrated so that the §4
	// workloads land in the paper's reported ranges.
	for _, c := range []power.Component{
		power.NewConstant("soc-base", 22), // SoC, sensors, PMIC overhead
		d.cpu,
		d.screen,
		d.wifi,
		d.cell,
		d.bt,
		d.fb.decoder, // hardware video decode block
		newRipple(d.rnd.Fork("ripple")),
	} {
		if err := d.rail.Attach(c); err != nil {
			return nil, err
		}
	}
	d.supply.Store(&supply{})
	d.recomputePath(supply{})
	if err := d.Boot(); err != nil {
		return nil, err
	}
	return d, nil
}

// Config reports the device's configuration.
func (d *Device) Config() Config { return d.cfg }

// Serial reports the ADB serial.
func (d *Device) Serial() string { return d.cfg.Serial }

// Clock exposes the device's clock (used by app models).
func (d *Device) Clock() simclock.Clock { return d.clock }

// Battery exposes the battery model.
func (d *Device) Battery() *battery.Battery { return d.batt }

// CPU exposes the CPU model.
func (d *Device) CPU() *CPU { return d.cpu }

// Screen exposes the screen model.
func (d *Device) Screen() *Screen { return d.screen }

// WiFi, Cellular and Bluetooth expose the radio models.
func (d *Device) WiFi() *Radio { return d.wifi }

// Cellular exposes the cellular radio.
func (d *Device) Cellular() *Radio { return d.cell }

// Bluetooth exposes the Bluetooth radio.
func (d *Device) Bluetooth() *Radio { return d.bt }

// Storage exposes the sdcard.
func (d *Device) Storage() *Storage { return d.store }

// Logcat exposes the log buffer.
func (d *Device) Logcat() *Logcat { return d.logcat }

// Framebuffer exposes the display pipeline state.
func (d *Device) Framebuffer() *Framebuffer { return d.fb }

// Rail exposes the device's power rail: the true current draw. The
// Monsoon model never reads this directly — it reads through the relay's
// MeasuredSource, or through USB distortion (USBObservedSource).
func (d *Device) Rail() *power.Rail { return d.rail }

// ReadMA implements power.Source with the true draw: zero when the
// device is unpowered or off.
func (d *Device) ReadMA(first time.Time, step time.Duration, out []float64) {
	d.readMA(d.supply.Load(), first, step, out)
}

func (d *Device) readMA(s *supply, first time.Time, step time.Duration, out []float64) {
	if !s.booted || s.path == PathNone {
		clear(out)
		return
	}
	d.rail.ReadMA(first, step, out)
}

// Boot powers the OS up. It fails without a supply path.
func (d *Device) Boot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := *d.supply.Load()
	if s.booted {
		return fmt.Errorf("device %s: already booted", d.cfg.Serial)
	}
	if s.path == PathNone {
		return fmt.Errorf("device %s: no power source", d.cfg.Serial)
	}
	s.booted = true
	d.supply.Store(&s)
	d.bootCount++
	d.cpu.startSystemProcesses()
	d.screen.SetOn(true)
	d.wifi.SetState(RadioIdle)
	d.bt.SetState(RadioIdle)
	d.logcat.Append("boot", Info, fmt.Sprintf("Android %d booted (count %d)", d.cfg.APILevel, d.bootCount))
	d.bootAt = d.clock.Now()
	d.armDrainLocked()
	return nil
}

// Shutdown powers the OS down, killing all processes.
func (d *Device) Shutdown() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.supply.Load().booted {
		return fmt.Errorf("device %s: not booted", d.cfg.Serial)
	}
	d.shutdownLocked("shutdown requested")
	return nil
}

func (d *Device) shutdownLocked(reason string) {
	s := *d.supply.Load()
	s.booted = false
	d.supply.Store(&s)
	d.foreground = ""
	d.cpu.killAll()
	d.screen.SetOn(false)
	d.wifi.SetState(RadioOff)
	d.cell.SetState(RadioOff)
	d.bt.SetState(RadioOff)
	d.fb.SetActivity(0, 0)
	d.armDrainLocked()
	d.logcat.Append("power", Info, "shutdown: "+reason)
}

// Booted reports whether the OS is up.
func (d *Device) Booted() bool { return d.supply.Load().booted }

// BootCount reports how many times the device booted (factory-reset and
// power-loss testing).
func (d *Device) BootCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bootCount
}

// Path reports the active supply path.
func (d *Device) Path() PowerPath { return d.supply.Load().path }

// SetRelayPosition tells the device whether the relay connects it to its
// battery (true) or to the monitor's Vout (false = bypass). Wired up by
// the vantage point via relay.OnSwitch.
func (d *Device) SetRelayPosition(batteryPos bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.batteryPath = batteryPos
	d.recomputePath(*d.supply.Load())
}

// SetMonitorSupply informs the device whether the power monitor's Vout
// is live — wired by the vantage point to the socket/Vout state.
func (d *Device) SetMonitorSupply(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.monitorSupply = on
	d.recomputePath(*d.supply.Load())
}

// USBSerial implements usb.Peripheral.
func (d *Device) USBSerial() string { return d.cfg.Serial }

// USBPowerChanged implements usb.Peripheral.
func (d *Device) USBPowerChanged(powered bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := *d.supply.Load()
	s.usbPowered = powered
	d.recomputePath(s)
}

// recomputePath picks the supply for s and publishes s: USB wins
// (hardware charge controller prefers VBUS), then battery/bypass per
// relay position. A transition to PathNone while booted is a hard power
// loss. Callers hold d.mu.
func (d *Device) recomputePath(s supply) {
	prev := d.supply.Load().path
	switch {
	case s.usbPowered:
		s.path = PathUSB
	case d.batteryPath && d.batt.Attached():
		s.path = PathBattery
	case !d.batteryPath && d.monitorSupply:
		s.path = PathMonitor
	default:
		s.path = PathNone
	}
	d.supply.Store(&s)
	if s.path == PathNone && s.booted {
		d.shutdownLocked("power lost")
	}
	if prev != s.path {
		d.logcat.Append("power", Info, fmt.Sprintf("supply path %v -> %v", prev, s.path))
	}
	d.armDrainLocked()
}

// armDrainLocked runs battery charge accounting exactly while the device is
// booted on the battery path: every second from boot the device
// integrates its draw and debits the battery. The ticker is armed where
// that starts and stopped where it ends, on the boot's phase (boot +
// k·1 s), so the same ticks drain the same charge while a device running
// off the monitor or USB costs its clock no callbacks at all. Callers
// hold d.mu.
func (d *Device) armDrainLocked() {
	const period = time.Second
	s := d.supply.Load()
	if on := s.booted && s.path == PathBattery; on == (d.drain != nil) {
		return
	} else if !on {
		d.drain.Stop()
		d.drain = nil
		return
	}
	next := d.bootAt.Add((d.clock.Now().Sub(d.bootAt)/period + 1) * period)
	d.drain = simclock.NewTickerAt(d.clock, next, period, func(now time.Time) {
		if s := d.supply.Load(); !s.booted || s.path != PathBattery {
			return
		}
		ma := power.At(d.rail, now)
		mah := ma * period.Seconds() / 3600
		if _, err := d.batt.Drain(mah); err != nil {
			d.logcat.Append("power", Warn, "battery drain accounting: "+err.Error())
		}
	})
}

// USB supply model constants.
const (
	usbBudgetMA  = 500 // VBUS supply capability
	usbMicroCtrl = 38  // micro-controller activation draw
)

// USBObservedSource returns what a power monitor wired in parallel would
// see while USB is powered: the VBUS supplies most of the load, so the
// monitor observes only the residual above the USB budget plus the USB
// micro-controller's negotiation draw — a distorted reading. This is the
// quantitative reason BatteryLab cuts USB power during measurements.
func (d *Device) USBObservedSource() power.Source { return usbObserved{d} }

type usbObserved struct{ d *Device }

func (u usbObserved) ReadMA(first time.Time, step time.Duration, out []float64) {
	u.d.readUSBObserved(u.d.supply.Load(), first, step, out)
}

func (d *Device) readUSBObserved(s *supply, first time.Time, step time.Duration, out []float64) {
	if !s.usbPowered {
		clear(out)
		return
	}
	d.readMA(s, first, step, out)
	for j, true_ := range out {
		residual := true_ - usbBudgetMA
		if residual < 0 {
			residual = 0
		}
		out[j] = residual + usbMicroCtrl
	}
}

// MonitorVisibleSource reports the current that actually flows through
// the device's V+ terminal toward an external monitor: the full draw
// when the device runs off the monitor's supply, the distorted USB
// residual while VBUS is up (the §3.3 interference), and nothing when
// the device runs off its own battery. A read loads the supply once per
// run.
func (d *Device) MonitorVisibleSource() power.Source { return monitorVisible{d} }

type monitorVisible struct{ d *Device }

func (m monitorVisible) ReadMA(first time.Time, step time.Duration, out []float64) {
	s := m.d.supply.Load()
	switch s.path {
	case PathMonitor:
		m.d.readMA(s, first, step, out)
	case PathUSB:
		m.d.readUSBObserved(s, first, step, out)
	default:
		clear(out)
	}
}
