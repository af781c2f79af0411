package device

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/power"
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

	mu      sync.Mutex // orders writers of the process table
	nextPID int
	// procs is the process table in ascending pid, so UtilAt sums in a
	// fixed order. A write publishes a new slice; a published one is
	// never modified.
	procs atomic.Pointer[[]*Process]
}

func newCPU(clock simclock.Clock, rnd *rng.RNG, cores int) *CPU {
	c := &CPU{
		clock:     clock,
		rnd:       rnd.Fork("cpu"),
		cores:     cores,
		idleMA:    8,
		perUtilMA: 6.3,
		nextPID:   1000,
	}
	c.procs.Store(&[]*Process{})
	return c
}

// Cores reports the core count.
func (c *CPU) Cores() int { return c.cores }

// Name implements power.Component.
func (c *CPU) Name() string { return "cpu" }

// AddMA implements power.Component: the process table is loaded once per
// run, and the utilization computed once per epoch the run crosses.
func (c *CPU) AddMA(first time.Time, step time.Duration, out []float64) {
	procs := *c.procs.Load()
	power.EachEpoch(first, step, utilEpoch, len(out), func(e int64, lo, hi int) {
		power.Add(out[lo:hi], c.idleMA+c.perUtilMA*utilIn(procs, e))
	})
}

// UtilAt reports total utilization in percent [0, 100] at the given time.
func (c *CPU) UtilAt(now time.Time) float64 {
	return utilIn(*c.procs.Load(), now.UnixNano()/int64(utilEpoch))
}

// utilIn is the total utilization of procs in epoch e, summed in pid
// order and clamped to 100.
func utilIn(procs []*Process, e int64) float64 {
	var total float64
	for _, p := range procs {
		total += p.utilIn(e)
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
	p.load.Store(&processLoad{})
	// pids only grow, so the slice stays sorted
	procs := append(slices.Clip(*c.procs.Load()), p)
	c.procs.Store(&procs)
	return p
}

// KillByName removes every process with the given name and reports how
// many it killed (`am force-stop` semantics).
func (c *CPU) KillByName(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	procs := *c.procs.Load()
	kept := slices.DeleteFunc(slices.Clone(procs), func(p *Process) bool { return p.name == name })
	c.procs.Store(&kept)
	return len(procs) - len(kept)
}

// Processes lists the process table sorted by pid.
func (c *CPU) Processes() []*Process { return slices.Clone(*c.procs.Load()) }

// FindProcess returns the first process with the given name, or nil.
func (c *CPU) FindProcess(name string) *Process {
	for _, p := range *c.procs.Load() {
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
	c.procs.Store(&[]*Process{})
}

// Process is one entry in the device process table. Its utilization is a
// truncated-normal noise process around a target, piecewise-constant per
// utilEpoch, derived statelessly from the process's seed so that all
// samplers agree. The value is a pure function of (epoch, target, sigma).
// A run of Monsoon samples asks for it once per epoch it crosses, and the
// process remembers the last one it computed, so the runs of one epoch (a
// run ends at every foreign clock deadline) and the 1 Hz CPU monitor's
// reads share one draw; two samplers filling the memo at once store the
// same value.
type Process struct {
	pid   int
	name  string
	noise *rng.RNG

	load  atomic.Pointer[processLoad] // replaced whole by SetLoad
	memMB atomic.Uint64               // math.Float64bits of the resident MB
	memo  atomic.Pointer[utilMemo]
}

// processLoad is a process's utilization target (percent) and its noise
// sigma.
type processLoad struct {
	target, sigma float64
}

// utilMemo caches utilIn's last result with the inputs it was drawn for.
// A published one is never modified.
type utilMemo struct {
	epoch int64
	load  processLoad
	util  float64
}

// PID reports the process id.
func (p *Process) PID() int { return p.pid }

// Name reports the process name.
func (p *Process) Name() string { return p.name }

// SetLoad sets the utilization target (percent) and its noise sigma.
func (p *Process) SetLoad(target, sigma float64) {
	if target < 0 {
		target = 0
	}
	p.load.Store(&processLoad{target: target, sigma: sigma})
}

// SetMemMB sets resident memory for dumpsys meminfo.
func (p *Process) SetMemMB(mb float64) { p.memMB.Store(math.Float64bits(mb)) }

// MemMB reports resident memory.
func (p *Process) MemMB() float64 { return math.Float64frombits(p.memMB.Load()) }

// utilIn is the process's utilization in epoch e under its current load.
func (p *Process) utilIn(epoch int64) float64 {
	load := *p.load.Load()
	if load.target == 0 && load.sigma == 0 {
		return 0
	}
	// Keyed on the load as well as the epoch: a SetLoad mid-epoch takes
	// effect at the very next sample.
	if m := p.memo.Load(); m != nil && m.epoch == epoch && m.load == load {
		return m.util
	}
	util := p.noise.At("util", epoch).TruncNormal(load.target, load.sigma, 0, 100)
	p.memo.Store(&utilMemo{epoch: epoch, load: load, util: util})
	return util
}
