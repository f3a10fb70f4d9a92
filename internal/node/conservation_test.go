package node

import (
	"testing"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/model"
)

// TestEngineConservation drives a deliberately contended closed-loop
// workload through every concurrency-control engine and checks the
// attempt accounting that the cross-engine comparisons rest on: with
// faults off and stats reset at time zero, every admitted execution
// attempt ends in exactly one of commit, abort or still-running, and
// every abort is followed by a restart of the same transaction. The
// native 2PL rows must show no engine-initiated work at all.
func TestEngineConservation(t *testing.T) {
	// Two nodes, opposite lock orders on a shared pair of pages: 2PL
	// deadlocks, optimistic engines raise write-write and validation
	// conflicts, and the hybrid sees both (page 1 is hot, the rest
	// cold).
	gen := func() *scriptGen {
		return &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(2), Write: true}}},
			{Type: 1, Refs: []model.Ref{{Page: pgID(2), Write: true}, {Page: pgID(1), Write: true}}},
		}}
	}
	cases := []struct {
		name     string
		coupling Coupling
		engine   cc.Kind
		force    bool
	}{
		{"gem-2pl", CouplingGEM, cc.KindDefault, false},
		{"pcl-2pl", CouplingPCL, cc.KindDefault, false},
		{"le-2pl", CouplingLockEngine, cc.KindDefault, true},
		{"gem-mvto", CouplingGEM, cc.KindMVTO, false},
		{"gem-occ", CouplingGEM, cc.KindOCC, false},
		{"gem-had", CouplingGEM, cc.KindHAD, false},
		{"pcl-mvto", CouplingPCL, cc.KindMVTO, false},
		{"pcl-occ", CouplingPCL, cc.KindOCC, false},
		{"pcl-had", CouplingPCL, cc.KindHAD, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := testParams(2, tc.coupling, tc.force)
			params.CC = tc.engine
			if tc.engine != cc.KindDefault {
				// The coherency oracle assumes 2PL (params.Validate
				// rejects the combination for the same reason).
				params.CheckInvariants = false
			}
			if tc.engine == cc.KindHAD {
				params.HotPage = func(page model.PageID, at time.Duration) bool {
					return page.Page == 1
				}
			}
			sys, m := runClosed(t, params, gen(), 8, 5*time.Millisecond, 3*time.Second)

			if m.Commits == 0 {
				t.Fatal("workload produced no commits")
			}
			inFlight := int64(sys.live)
			if m.Admitted != m.Commits+m.Aborts+inFlight {
				t.Errorf("admitted %d != commits %d + aborts %d + in-flight %d",
					m.Admitted, m.Commits, m.Aborts, inFlight)
			}
			if m.Restarts != m.Aborts {
				t.Errorf("restarts %d != aborts %d (faults are off, every abort restarts)",
					m.Restarts, m.Aborts)
			}
			if m.CCAborts > m.Restarts {
				t.Errorf("engine aborts %d exceed restarts %d", m.CCAborts, m.Restarts)
			}
			if m.CCValidationFails > m.CCValidations {
				t.Errorf("validation failures %d exceed validations %d",
					m.CCValidationFails, m.CCValidations)
			}
			if m.CCEngine != tc.engine.String() {
				t.Errorf("engine name %q, want %q", m.CCEngine, tc.engine.String())
			}
			if tc.engine == cc.KindDefault {
				if m.CCAborts != 0 || m.CCValidations != 0 {
					t.Errorf("native 2PL reported engine work: aborts %d, validations %d",
						m.CCAborts, m.CCValidations)
				}
				if m.Aborts == 0 {
					t.Error("opposite lock orders must deadlock under 2PL")
				}
			} else if m.CCValidations == 0 {
				t.Errorf("%s committed %d transactions without validating any", tc.name, m.Commits)
			}
		})
	}
}
