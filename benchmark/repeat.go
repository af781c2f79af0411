package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// child runs one workload in a fresh process of this same binary, so
// that proc.* figures and heap state never leak between workloads, and
// returns its parsed result line. The child's report is copied to
// standard output when echo is set.
func child(name string, seed uint64, seconds float64, trace int, echo bool) (resultLine, error) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(exe,
		"-workload", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if echo {
		os.Stdout.Write(out.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return line, fmt.Errorf("%s: %w", name, runErr)
		}
		return line, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if runErr != nil {
		return line, fmt.Errorf("%s: %w", name, runErr)
	}
	return line, nil
}

// runEach runs every workload, each in its own process, and fails if any
// of them does.
func runEach(seed uint64, seconds float64, trace int) error {
	var failed []string
	for _, w := range workloads {
		if _, err := child(w.name, seed, seconds, trace, true); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// repeatRuns is how many runs, each with its own seed, make one set of
// the repeat check.
const repeatRuns = 10

// repeatCheck applies the acceptance rule of the benchmark to itself:
// two sets of repeatRuns runs per workload (seeds seed, seed+1, ...), the
// second set visiting the workloads in reverse order. For every
// end-to-end metric on every workload it prints both medians and
// quartiles, and fails if a spread (interquartile range over median,
// setup_s excepted) exceeds the metric's bound or the second median is
// worse than the first by more than the bound.
func repeatCheck(seed uint64, seconds float64) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for set := 0; set < 2; set++ {
		for r := 0; r < repeatRuns; r++ {
			for i := range workloads {
				w := workloads[i]
				if set == 1 {
					w = workloads[len(workloads)-1-i]
				}
				line, err := child(w.name, seed+uint64(r), seconds, 0, false)
				if err != nil {
					return err
				}
				if !line.Correct {
					return fmt.Errorf("%s seed %d: %d operations failed", w.name, seed+uint64(r), line.Failed)
				}
				for _, d := range endToEnd {
					k := key{w.name, d.Name}
					sets[set][k] = append(sets[set][k], line.Metrics[d.Name].Value)
				}
				fmt.Printf("set %d run %d %s done\n", set+1, r+1, w.name)
			}
		}
	}
	var bad []string
	fmt.Printf("%-10s %-14s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "q1", "median", "q3", "spread", "worse")
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			var med, spread [2]float64
			fmt.Printf("%-10s %-14s", w.name, d.Name)
			for set := 0; set < 2; set++ {
				q1, q3 := quartiles(sets[set][k])
				med[set] = median(sets[set][k])
				spread[set] = (q3 - q1) / med[set]
				fmt.Printf(" %12.6g %12.6g %12.6g %7.2f%% |", q1, med[set], q3, 100*spread[set])
				if d.Name != "setup_s" && spread[set] > d.Bound {
					bad = append(bad, fmt.Sprintf("%s %s: spread %.1f%% of set %d exceeds the %.0f%% bound", w.name, d.Name, 100*spread[set], set+1, 100*d.Bound))
				}
			}
			worse := med[1]/med[0] - 1
			if d.Better == "higher" {
				worse = 1 - med[1]/med[0]
			}
			fmt.Printf(" %7.2f%%\n", 100*worse)
			if worse > d.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: second median worse than the first by %.1f%%, bound %.0f%%", w.name, d.Name, 100*worse, 100*d.Bound))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("repeat check failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
