// Command simbench measures what the simulator itself costs per
// committed simulated transaction: host time, heap allocations and
// memory, over four workloads, and with --trace 1 where that host time
// goes, layer by layer.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash simbench/run.sh --workload paper-dc --seed 1 --seconds 10 --trace 0
//
// One invocation prepares the workload's inputs from the seed (timed as
// set-up), then repeats passes over all of the workload's simulated runs
// back to back, in one process, until --seconds have passed. Host times
// are scaled to a reference kernel timed next to every simulated run
// (reference.go says why) and are medians over passes, as are allocation
// counts. Every simulated run's output is checked and its metrics
// digested; each pass must reproduce the first pass's digests. With
// --trace 1, half of the time goes to untraced passes and half to passes
// under the CPU profiler, whose samples are charged to layers
// (layers.go). The last line of standard output is one JSON
// object: attempted and failed count simulated runs, and metrics holds
// the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
// With --steady N it instead runs the workload in N child processes,
// one per seed, and reports every end-to-end metric's spread against its
// bound in BENCHMARK.json (steady.go).
//
// Host times are those of the machine the benchmark runs on, scaled to
// the speed at which the reference kernel takes 10 ms. Simulated
// results are checked against the shape of the paper's results (which
// configuration wins), not against measured hardware.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// defaultSeed is the seed results are reported for. heldOutSeed is kept
// out of tuning: a claimed gain is confirmed on it.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", defaultSeed, "workload seed; every input derives from it")
		seconds = flag.Float64("seconds", 10, "host seconds to measure for")
		traced  = flag.Int("trace", 0, "1 adds passes under the CPU profiler and prints the per-layer metrics instead")
		steady  = flag.Int("steady", 0, "if positive, run this many seeds in child processes and report every end-to-end metric's spread")
		sets    = flag.Int("sets", 1, "with -steady, run the seeds this many times and compare each set's medians with the first's")
	)
	flag.Parse()
	w := lookup(*name)
	switch {
	case w == nil:
		exit(2, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	case *seconds <= 0:
		exit(2, fmt.Errorf("-seconds must be positive, got %v", *seconds))
	case *traced != 0 && *traced != 1:
		exit(2, fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	case *steady < 0 || *sets < 1:
		exit(2, fmt.Errorf("-steady must be non-negative and -sets positive"))
	}
	var err error
	if *steady > 0 {
		err = runSteady(w, *seed, *seconds, *steady, *sets)
	} else {
		err = runBench(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	}
	if err != nil {
		exit(1, err)
	}
}

func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(code)
}
