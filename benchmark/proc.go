package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample brackets a timed region with the process-level counters the
// report normalises per build.
type procSample struct {
	ms  runtime.MemStats
	cpu time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startProc() *procSample {
	p := &procSample{cpu: cpuTime()}
	runtime.ReadMemStats(&p.ms)
	return p
}

// stop records the deltas since startProc; ops is what "per build"
// divides by (builds, or experiments).
func (p *procSample) stop(res *passResult, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(ops)
	res.vals["proc.allocs_per_build"] = float64(ms.Mallocs-p.ms.Mallocs) / n
	res.vals["proc.alloc_bytes_per_build"] = float64(ms.TotalAlloc-p.ms.TotalAlloc) / n
	res.vals["proc.gc_pause_ms"] = float64(ms.PauseTotalNs-p.ms.PauseTotalNs) / 1e6
	res.vals["proc.cpu_s"] = (cpuTime() - p.cpu).Seconds()
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
