// Recovery-time analysis: quantify the availability argument behind
// GEM's non-volatility. A simulation run measures the log and page
// write volumes of the configured system; the recovery model then
// estimates the crash restart time for different checkpoint intervals,
// comparing log files on log disks against log files kept in GEM (where
// the redo scan runs at semiconductor speed and the global lock table
// survives the crash).
//
//	go run ./examples/recoverytime
package main

import (
	"fmt"
	"log"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/node"
	"gemsim/internal/recovery"
)

func main() {
	// Measure the recovery-relevant rates of a standard NOFORCE node.
	cfg := core.DefaultDebitCreditConfig(1)
	cfg.Warmup = 2 * time.Second
	cfg.Measure = 8 * time.Second
	rep, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := &rep.Metrics
	tps := m.Throughput
	logPagesPerTxn := float64(m.LogWrites) / float64(m.Commits)
	dirtyPerTxn := 3.0 // debit-credit modifies three pages per txn

	fmt.Printf("measured: %.0f TPS, %.2f log pages/txn\n\n", tps, logPagesPerTxn)
	fmt.Printf("estimated node recovery time after a crash (NOFORCE, buffer %d):\n\n", cfg.BufferPages)
	fmt.Printf("%-12s %-28s %s\n", "checkpoint", "log on log disks", "log in GEM")

	disk := recovery.DiskLogParams()
	gem := recovery.GEMLogParams()
	// With primary copy locking the failed node's GLA partition must
	// be rebuilt; with a GLT in non-volatile GEM the lock state
	// survives. Charge the loose coupling one second for the
	// re-partitioning (illustrative).
	disk.LockRecoveryTime = time.Second
	gem.LockRecoveryTime = 0

	for _, interval := range []time.Duration{
		15 * time.Second, time.Minute, 5 * time.Minute, 15 * time.Minute,
	} {
		w := recovery.ForCheckpointInterval(tps, interval, logPagesPerTxn, dirtyPerTxn, cfg.BufferPages, false)
		fmt.Printf("%-12v %-28v %v\n", interval,
			disk.Estimate(w).Total().Round(time.Millisecond),
			gem.Estimate(w).Total().Round(time.Millisecond))
	}
	fmt.Println()
	w := recovery.ForCheckpointInterval(tps, 5*time.Minute, logPagesPerTxn, dirtyPerTxn, cfg.BufferPages, false)
	fmt.Printf("decomposition at 5m checkpoints, log disks: %v\n", disk.Estimate(w))
	fmt.Printf("decomposition at 5m checkpoints, GEM log:   %v\n", gem.Estimate(w))

	// Cross-check the analytic model against the simulator: crash a
	// node mid-run, then feed the crash-time workload the simulation
	// actually measured (log pages scanned, pages redone) back into
	// the model and compare the predicted scan+redo time with the
	// simulated phases. The simulation additionally sees device
	// queueing and CPU contention from the surviving load, so the two
	// agree in magnitude, not to the millisecond — and the parallel
	// row shows why the analytic ideal division is optimistic: the
	// workers contend for the one log disk, so the simulated speedup
	// is far below linear.
	fmt.Printf("\nsimulated crash recovery vs analytic model (log on log disks):\n\n")
	fmt.Printf("%-9s %-12s %-12s %-24s %s\n", "workers", "simulated", "analytic", "workload", "ratio")
	for _, workers := range []int{1, 4} {
		fs, est, err := simulatedRecovery(workers)
		if err != nil {
			log.Fatal(err)
		}
		sim := fs.LogScan + fs.Redo
		ana := est.LogScan + est.Redo
		fmt.Printf("%-9d %-12v %-12v %-24s %.2f\n",
			workers, sim.Round(time.Millisecond), ana.Round(time.Millisecond),
			fmt.Sprintf("%d log pages, %d redo", fs.LogPagesScanned, fs.PagesRedone),
			float64(sim)/float64(ana))
	}
}

// simulatedRecovery crashes one node of a four-node disk-logging
// complex, and returns the measured failover alongside the analytic
// estimate for the crash-time workload the simulation recorded.
func simulatedRecovery(workers int) (node.FailoverStats, recovery.Estimate, error) {
	cfg := core.FailoverConfig(core.CouplingGEM, false, core.PresetOptions{
		Warmup:  2 * time.Second,
		Measure: 16 * time.Second,
	})
	cfg.Faults.RecoveryWorkers = workers
	rep, err := core.Run(cfg)
	if err != nil {
		return node.FailoverStats{}, recovery.Estimate{}, err
	}
	if len(rep.Metrics.Failovers) != 1 {
		return node.FailoverStats{}, recovery.Estimate{},
			fmt.Errorf("recoverytime: %d failovers, want 1", len(rep.Metrics.Failovers))
	}
	fs := rep.Metrics.Failovers[0]
	w := recovery.Workload{
		LogPagesSinceCheckpoint: fs.LogPagesScanned,
		DirtyPages:              fs.PagesRedone,
	}
	return fs, recovery.DiskLogParams().ParallelEstimate(w, workers), nil
}
