package core

import (
	"testing"
	"time"

	"gemsim/internal/model"
)

// TestTier2PerCommit gates the process tier on default 2-node GEM
// debit-credit (`gemsim -nodes 2 -warmup 1s -measure 4s -v`), alone and
// with BRANCH/TELLER in the GEM write buffer or the GEM cache: process
// spawns and parks per commit over the measurement window stay at or
// below ceilings just above their values. Page writes, the background
// write-backs and the GEM destages among them, run on the callback
// tier, so the transaction is the only process spawned per event. The
// counts are deterministic functions of the configuration, so unlike
// TestTxnAllocs the gate also holds under -race.
func TestTier2PerCommit(t *testing.T) {
	for _, c := range []struct {
		name          string
		medium        model.Medium // BRANCH/TELLER; disk is the default
		spawns, parks float64      // ceilings per commit
	}{
		{"default", model.MediumDisk, 1.05, 15.0},
		{"bt-gemwb", model.MediumGEMWriteBuffer, 1.05, 15.0},
		{"bt-gemcache", model.MediumGEMCache, 1.05, 15.0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultDebitCreditConfig(2)
			if c.medium != model.MediumDisk {
				cfg = withBTMedium(cfg, c.medium)
			}
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
