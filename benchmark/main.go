// Command benchmark is the repository's performance benchmark: four
// fixed-work workloads against an access server assembled in-process on
// a virtual clock and served over loopback HTTP, so every wall-clock
// microsecond it reports is platform overhead. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: backlog, dashboard, measure or restart (default: each, in its own process)")
		seed     = flag.Uint64("seed", 2019, "seed of the input generator")
		seconds  = flag.Float64("seconds", 20, "how long one run measures, in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
		repeat   = flag.Bool("repeat-check", false, "run every workload twice in fresh processes and compare the two sets")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *repeat:
		err = repeatCheck(*seed, *seconds)
	case *name == "":
		err = runEach(*seed, *seconds, *trace)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs a single workload in this process and prints its report;
// the result line is the last line of standard output.
func runOne(name string, seed uint64, seconds float64, traced bool, traceOut string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rr, err := runWorkload(w, seed, frozenSizes, seconds, traced)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if traced && traceOut != "" {
		if err := writeSpans(traceOut, rr.spans); err != nil {
			return err
		}
	}
	if err := rr.print(os.Stdout); err != nil {
		return err
	}
	if rr.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed or violated a check", name, rr.failed, rr.attempted)
	}
	return nil
}
