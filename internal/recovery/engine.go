// The replay engine: shared policy for the in-simulation REDO recovery
// in internal/node. Recovery replays the crashed node's dirty-page
// backlog, partitioned by GLA so several recovery workers can make
// progress at once, and — under the incremental reopen policy —
// repairs individual pages on demand when a readmitted transaction
// touches them before replay gets there. This file names the reopen
// policies, assigns partitions to workers, and extends the analytic
// model of recovery.go to the parallel case so the simulated engine
// can be cross-checked. The backlog itself, each page with its replay
// state, lives with the simulated recovery.
package recovery

import (
	"fmt"
	"sort"
	"time"
)

// ReopenPolicy selects when transactions are readmitted after a node
// crash.
type ReopenPolicy int

const (
	// ReopenOffline readmits transactions only after the full REDO
	// backlog has been replayed (the classic restart discipline and
	// the behavior of earlier versions).
	ReopenOffline ReopenPolicy = iota
	// ReopenIncremental readmits transactions as soon as the lock
	// state is recovered and fences are in place; a first touch of an
	// unredone page triggers an on-demand single-page repair that
	// jumps the replay queue [Sauer & Härder, arXiv 1409.3682].
	ReopenIncremental
)

// String names the reopen policy as accepted by ParseReopenPolicy.
func (p ReopenPolicy) String() string {
	switch p {
	case ReopenOffline:
		return "offline"
	case ReopenIncremental:
		return "incremental"
	default:
		return "reopen?"
	}
}

// ParseReopenPolicy parses a reopen policy name ("offline" or
// "incremental"); the empty string means offline.
func ParseReopenPolicy(s string) (ReopenPolicy, error) {
	switch s {
	case "", "offline":
		return ReopenOffline, nil
	case "incremental":
		return ReopenIncremental, nil
	default:
		return 0, fmt.Errorf("recovery: unknown reopen policy %q (want offline or incremental)", s)
	}
}

// AssignPartitions maps GLA partitions to recovery workers using
// longest-processing-time-first assignment on the per-partition page
// counts: partitions are placed heaviest-first onto the least-loaded
// worker. The result is deterministic — ties break toward the lower
// partition and lower worker index — so parallel replay schedules are
// identical across runs and -jobs values.
func AssignPartitions(pagesPerPartition []int, workers int) []int {
	if workers < 1 {
		workers = 1
	}
	assign := make([]int, len(pagesPerPartition))
	order := make([]int, len(pagesPerPartition))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := order[a], order[b]
		if pagesPerPartition[pa] != pagesPerPartition[pb] {
			return pagesPerPartition[pa] > pagesPerPartition[pb]
		}
		return pa < pb
	})
	load := make([]int, workers)
	for _, part := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		assign[part] = best
		load[best] += pagesPerPartition[part]
	}
	return assign
}

// ParallelEstimate extends Estimate to replay partitioned across the
// given number of recovery workers: the log scan and redo phases divide
// by the worker count (each worker scans its share of the log span and
// replays its partitions), while undo and lock recovery remain serial
// coordinator work. With workers <= 1 it reduces to Estimate.
func (p Params) ParallelEstimate(w Workload, workers int) Estimate {
	e := p.Estimate(w)
	if workers > 1 {
		e.LogScan = e.LogScan / time.Duration(workers)
		e.Redo = e.Redo / time.Duration(workers)
	}
	return e
}
