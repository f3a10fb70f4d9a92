package core

import (
	"testing"
	"time"

	"gemsim/internal/model"
)

// TestTier2PerCommit gates the process tier on default 2-node GEM
// debit-credit (`gemsim -nodes 2 -warmup 1s -measure 4s -v`), alone,
// with BRANCH/TELLER in the GEM write buffer or the GEM cache, and with
// the logs in GEM: process spawns and parks per commit over the
// measurement window stay at or below ceilings just above their values.
// Every page and log I/O, the background write-backs and GEM destages
// among them, runs on the callback tier: the transaction is the only
// process spawned per event, and it parks once per device access (about
// 12.4 parks per commit with disk logs, 12.3 with GEM logs). The counts
// are deterministic functions of the configuration, so unlike
// TestTxnAllocs the gate also holds under -race.
func TestTier2PerCommit(t *testing.T) {
	for _, c := range []struct {
		name          string
		medium        model.Medium // BRANCH/TELLER; disk is the default
		logInGEM      bool
		spawns, parks float64 // ceilings per commit
	}{
		{"default", model.MediumDisk, false, 1.05, 12.5},
		{"bt-gemwb", model.MediumGEMWriteBuffer, false, 1.05, 12.5},
		{"bt-gemcache", model.MediumGEMCache, false, 1.05, 12.5},
		{"log-gem", model.MediumDisk, true, 1.05, 12.35},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultDebitCreditConfig(2)
			if c.medium != model.MediumDisk {
				cfg = withBTMedium(cfg, c.medium)
			}
			cfg.LogInGEM = c.logInGEM
			cfg.Warmup, cfg.Measure = time.Second, 4*time.Second
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			commits := float64(rep.Metrics.Commits)
			spawns, parks := float64(rep.KernelSpawns)/commits, float64(rep.KernelParks)/commits
			t.Logf("%d commits: %.3f spawns and %.3f parks per commit", rep.Metrics.Commits, spawns, parks)
			if spawns > c.spawns {
				t.Errorf("%.3f spawns per commit, ceiling %.2f", spawns, c.spawns)
			}
			if parks > c.parks {
				t.Errorf("%.3f parks per commit, ceiling %.2f", parks, c.parks)
			}
		})
	}
}
