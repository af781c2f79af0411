package device

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"batterylab/internal/rng"
	"batterylab/internal/simclock"
)

// utilEpoch is the granularity of process-utilization noise: within one
// epoch a process's load is constant, so any sampler (the 5 kHz power
// monitor, the 1 Hz CPU monitor) observes a consistent value.
const utilEpoch = 100 * time.Millisecond

// CPU models the device SoC's cores plus the process table. Total
// utilization is the clamped sum of per-process loads; the current draw
// rises linearly with utilization.
type CPU struct {
	clock simclock.Clock
	rnd   *rng.RNG
	cores int

	// Current model: idleMA at 0 % plus perUtilMA per percentage point.
	// 6.3 mA/% puts an all-core burn near 650 mA — typical for a mid-range
	// 2018 SoC at nominal battery voltage.
	idleMA    float64
	perUtilMA float64

	mu      sync.Mutex
	nextPID int
	procs   []*Process // ascending pid: UtilAt sums in a fixed order
}

func newCPU(clock simclock.Clock, rnd *rng.RNG, cores int) *CPU {
	return &CPU{
		clock:     clock,
		rnd:       rnd.Fork("cpu"),
		cores:     cores,
		idleMA:    8,
		perUtilMA: 6.3,
		nextPID:   1000,
	}
}

// Cores reports the core count.
func (c *CPU) Cores() int { return c.cores }

// Name implements power.Component.
func (c *CPU) Name() string { return "cpu" }

// CurrentMA implements power.Source.
func (c *CPU) CurrentMA(now time.Time) float64 {
	return c.idleMA + c.perUtilMA*c.UtilAt(now)
}

// UtilAt reports total utilization in percent [0, 100] at the given time.
func (c *CPU) UtilAt(now time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total float64
	for _, p := range c.procs {
		total += p.utilAt(now)
	}
	if total > 100 {
		total = 100
	}
	return total
}

// StartProcess spawns a process with zero load and returns it.
func (c *CPU) StartProcess(name string) *Process {
	c.mu.Lock()
	defer c.mu.Unlock()
	pid := c.nextPID
	c.nextPID++
	p := &Process{
		pid:   pid,
		name:  name,
		noise: c.rnd.Fork(fmt.Sprintf("proc/%d/%s", pid, name)),
	}
	c.procs = append(c.procs, p) // pids only grow, so the slice stays sorted
	return p
}

// KillByName removes every process with the given name and reports how
// many it killed (`am force-stop` semantics).
func (c *CPU) KillByName(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.procs)
	c.procs = slices.DeleteFunc(c.procs, func(p *Process) bool { return p.name == name })
	return n - len(c.procs)
}

// Processes lists the process table sorted by pid.
func (c *CPU) Processes() []*Process {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.procs)
}

// FindProcess returns the first process with the given name, or nil.
func (c *CPU) FindProcess(name string) *Process {
	for _, p := range c.Processes() {
		if p.name == name {
			return p
		}
	}
	return nil
}

// startSystemProcesses seeds the table with the OS baseline load.
func (c *CPU) startSystemProcesses() {
	sys := c.StartProcess("system_server")
	sys.SetLoad(1.6, 0.5)
	sys.SetMemMB(180)
	ui := c.StartProcess("com.android.systemui")
	ui.SetLoad(0.7, 0.3)
	ui.SetMemMB(120)
}

// killAll clears the process table (power loss / shutdown).
func (c *CPU) killAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.procs = nil
}

// Process is one entry in the device process table. Its utilization is a
// truncated-normal noise process around a target, piecewise-constant per
// utilEpoch, derived statelessly from the process's seed so that all
// samplers agree. The value is a pure function of (epoch, target, sigma);
// the process remembers the last one it computed, so the 500 Monsoon
// samples of an epoch cost one draw, not 500.
type Process struct {
	pid   int
	name  string
	noise *rng.RNG

	mu     sync.Mutex
	target float64 // percent
	sigma  float64
	memMB  float64
	memo   utilMemo
}

// utilMemo caches utilAt's last result with the inputs it was drawn for.
type utilMemo struct {
	ok            bool
	epoch         int64
	target, sigma float64
	util          float64
}

// PID reports the process id.
func (p *Process) PID() int { return p.pid }

// Name reports the process name.
func (p *Process) Name() string { return p.name }

// SetLoad sets the utilization target (percent) and its noise sigma.
func (p *Process) SetLoad(target, sigma float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if target < 0 {
		target = 0
	}
	p.target = target
	p.sigma = sigma
}

// SetMemMB sets resident memory for dumpsys meminfo.
func (p *Process) SetMemMB(mb float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.memMB = mb
}

// MemMB reports resident memory.
func (p *Process) MemMB() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.memMB
}

func (p *Process) utilAt(now time.Time) float64 {
	epoch := now.UnixNano() / int64(utilEpoch)
	p.mu.Lock()
	defer p.mu.Unlock()
	target, sigma := p.target, p.sigma
	if target == 0 && sigma == 0 {
		return 0
	}
	// Keyed on the load as well as the epoch: a SetLoad mid-epoch takes
	// effect at the very next sample.
	if m := p.memo; !m.ok || m.epoch != epoch || m.target != target || m.sigma != sigma {
		util := p.noise.At("util", epoch).TruncNormal(target, sigma, 0, 100)
		p.memo = utilMemo{ok: true, epoch: epoch, target: target, sigma: sigma, util: util}
	}
	return p.memo.util
}
