package core

import (
	"fmt"
	"time"
)

// HyperscaleExperiment is the kernel-scaling preset (not a paper
// figure): hundreds of nodes driven by a closed-loop terminal
// population reaching into the millions. The closed-loop source holds
// every idle terminal as one pending calendar event, not a goroutine.
// The series hold the offered load constant at 100 TPS per node by
// scaling the think time with the terminal count, so the
// rows isolate what the experiment is about: the kernel's cost of
// carrying a 4x larger pending-event population at identical
// transaction load. MPL 64 bounds the live goroutines per node
// regardless of the terminal count.
//
// The reported metric (simulated throughput) is deterministic, so the
// tables stay byte-identical across -jobs values like every other
// figure; the wall-clock events/sec of a run lands in
// Report.KernelEventsPerSec and on stderr, never in the table.
//
// Quick mode shrinks the complex (tens of nodes, tens of thousands of
// terminals) so the preset fits in a CI smoke step.
func HyperscaleExperiment(quick bool) Experiment {
	nodes := []int{64, 128, 256}
	terminals := []int{2500, 10000}
	warmup, measure := 2*time.Second, 10*time.Second
	if quick {
		nodes = []int{16, 32}
		terminals = []int{250, 1000}
	}

	var series []Series
	for _, t := range terminals {
		t := t
		series = append(series, Series{
			Label: fmt.Sprintf("%d terms/node", t),
			Make: func(n int) Config {
				cfg := DefaultDebitCreditConfig(n)
				cfg.MPL = 64
				// think = terminals/100s keeps the offered load at
				// 100 TPS per node for every terminal population.
				cfg.ClosedLoop = &ClosedLoopConfig{
					TerminalsPerNode: t,
					ThinkTime:        time.Duration(t) * time.Second / 100,
				}
				return cfg
			},
		})
	}
	return Experiment{
		ID:     "hyperscale",
		Title:  "Kernel scaling: pooled closed-loop terminals at constant 100 TPS per node (GEM, NOFORCE, MPL 64)",
		Metric: "throughput [txn/s]",
		Nodes:  nodes,
		Series: series,
		Value:  func(r *Report) float64 { return r.Metrics.Throughput },
		Windows: func(int) (time.Duration, time.Duration) {
			return warmup, measure
		},
	}
}
