package device

import (
	"fmt"
	"strings"

	"batterylab/internal/power"
)

// Dumpsys renders diagnostic text for the named service, mimicking the
// `adb shell dumpsys <service>` surfaces the paper's experiments collect
// (battery level, CPU, memory). Unknown services return an error like the
// real tool.
func (d *Device) Dumpsys(service string) (string, error) {
	switch service {
	case "battery":
		return d.dumpsysBattery(), nil
	case "cpuinfo":
		return d.dumpsysCPU(), nil
	case "meminfo":
		return d.dumpsysMem(), nil
	case "power":
		return d.dumpsysPower(), nil
	default:
		return "", fmt.Errorf("dumpsys: can't find service: %s", service)
	}
}

func (d *Device) dumpsysBattery() string {
	var b strings.Builder
	b.WriteString("Current Battery Service state:\n")
	usb := d.Path() == PathUSB
	fmt.Fprintf(&b, "  AC powered: false\n")
	fmt.Fprintf(&b, "  USB powered: %v\n", usb)
	fmt.Fprintf(&b, "  level: %d\n", int(d.batt.SoC()*100+0.5))
	fmt.Fprintf(&b, "  scale: 100\n")
	fmt.Fprintf(&b, "  voltage: %d\n", int(d.batt.VoltageV()*1000))
	fmt.Fprintf(&b, "  temperature: 270\n")
	fmt.Fprintf(&b, "  technology: Li-ion\n")
	return b.String()
}

func (d *Device) dumpsysCPU() string {
	now := d.clock.Now()
	epoch := now.UnixNano() / int64(utilEpoch)
	var b strings.Builder
	total := d.cpu.UtilAt(now)
	fmt.Fprintf(&b, "Load: %.1f%% TOTAL across %d cores\n", total, d.cpu.Cores())
	for _, p := range d.cpu.Processes() {
		fmt.Fprintf(&b, "  %5.1f%% %d/%s\n", p.utilIn(epoch), p.PID(), p.Name())
	}
	return b.String()
}

func (d *Device) dumpsysMem() string {
	var b strings.Builder
	b.WriteString("Applications Memory Usage (in Kilobytes):\n")
	var total float64
	for _, p := range d.cpu.Processes() {
		fmt.Fprintf(&b, "  %8.0fK: %s (pid %d)\n", p.MemMB()*1024, p.Name(), p.PID())
		total += p.MemMB()
	}
	fmt.Fprintf(&b, "Total RSS: %.0fK\n", total*1024)
	return b.String()
}

func (d *Device) dumpsysPower() string {
	var b strings.Builder
	b.WriteString("POWER MANAGER (dumpsys power)\n")
	fmt.Fprintf(&b, "  Display Power: state=%v\n", map[bool]string{true: "ON", false: "OFF"}[d.screen.On()])
	fmt.Fprintf(&b, "  Supply path: %v\n", d.Path())
	fmt.Fprintf(&b, "  Instantaneous draw: %.1f mA\n", power.At(d, d.clock.Now()))
	return b.String()
}
