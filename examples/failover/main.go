// Command failover demonstrates in-simulation fault injection: a
// four-node debit-credit complex loses node 1 a quarter into the
// measurement window, the survivors detect the failure, fence the
// failed node's modified pages, recover its lock state and redo its
// committed updates from the log — either from disk or from
// non-volatile GEM, which is where closely coupled systems shine.
//
// The program runs the failover preset through the sweep engine (its
// four runs execute in parallel), prints the comparison table (recovery
// duration and phase breakdown, killed/retried transactions, response
// time before, during and after the outage) and then walks through one
// GEM-log run in detail.
package main

import (
	"fmt"
	"log"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/sweep"
)

func main() {
	presets, err := core.Presets(1, false)
	if err != nil {
		log.Fatal(err)
	}
	var runs []sweep.Run
	for i := range presets {
		if presets[i].ID == "failover" {
			runs = sweep.PresetRuns(&presets[i], 1)
		}
	}
	results, sum, err := sweep.Execute(runs, sweep.Engine{})
	if err != nil {
		log.Fatal(err)
	}
	if sum.Failed > 0 {
		log.Fatalf("%d of %d runs failed: %v", sum.Failed, sum.Total, sum.Failures)
	}
	fmt.Println(sweep.Tables(runs, results)[0].Table.Render())

	reports := make(map[string]*core.Report, len(runs))
	for _, r := range runs {
		reports[r.Row] = results[r.Key].Report
	}
	rep := reports["GEM/GEM-log"]
	m := &rep.Metrics
	fs := m.Failovers[0]
	fmt.Printf("One failover in detail (%s, node %d):\n", "GEM/GEM-log", fs.Node)
	fmt.Printf("  crash at %v, detected at %v, recovered at %v\n", fs.CrashAt, fs.DetectAt, fs.RecoveredAt)
	fmt.Printf("  outage %v = detection + lock recovery %v + log scan %v (%d pages) + redo %v (%d pages)\n",
		fs.RecoveryDuration, fs.LockRecovery, fs.LogScan, fs.LogPagesScanned, fs.Redo, fs.PagesRedone)
	fmt.Printf("  %d in-flight transactions killed, %d resubmitted, %d lock timeouts\n",
		m.TxnsKilled, m.TxnsRetried, m.LockTimeouts)
	fmt.Printf("  response time: %.1fms before, %.1fms while degraded, %.1fms after\n",
		msf(m.MeanRTPreFailure), msf(m.MeanRTDuringRecovery), msf(m.MeanRTPostRecovery))

	disk := reports["GEM/disk-log"].Metrics.Failovers[0]
	fmt.Printf("\nGEM log vs disk log: outage %v vs %v — the non-volatile GEM log turns\n"+
		"the dominant log-scan phase (%v on disk) into %v.\n",
		fs.RecoveryDuration, disk.RecoveryDuration, disk.LogScan, fs.LogScan)
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
