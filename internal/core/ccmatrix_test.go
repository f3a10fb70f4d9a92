package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/fault"
	"gemsim/internal/workload"
)

// ccMatrixCell is one coupling × engine × update-strategy combination
// of the concurrency-control golden matrix.
type ccMatrixCell struct {
	name string
	cfg  Config
}

// ccMatrixConfig is a short closed-loop debit-credit run on three nodes
// with a concentrated hot spot, so lock waits, deadlocks, optimistic
// conflicts and restarts all occur within a second of simulated time.
func ccMatrixConfig(coupling Coupling, engine cc.Kind, force bool) Config {
	cfg := DefaultDebitCreditConfig(3)
	cfg.Coupling = coupling
	cfg.CC = engine
	cfg.Force = force
	cfg.ClosedLoop = &ClosedLoopConfig{TerminalsPerNode: 20, ThinkTime: 100 * time.Millisecond}
	cfg.Warmup = 200 * time.Millisecond
	cfg.Measure = time.Second
	dc := workload.DefaultDebitCreditParams(cfg.ArrivalRatePerNode * float64(cfg.Nodes))
	dc.Skew = &workload.Skew{HotFraction: 0.02, HotProb: 0.9}
	cfg.Workload.DebitCredit = &dc
	return cfg
}

// ccMatrixTrace synthesizes a small, update-heavy trace whose
// transactions read pages before writing them in no fixed order: 2PL
// deadlocks and lock upgrades occur, which the debit-credit reference
// order rules out.
func ccMatrixTrace() *workload.Trace {
	p := workload.DefaultTraceGenParams(1)
	p.Transactions = 1000
	p.TotalPages = 2000
	p.MeanRefs = 20
	p.WriteFrac = 0.2
	p.UpdateTxFrac = 0.5
	p.AdHocTxns = 2
	p.LargestRefs = 200
	trace, err := workload.GenerateTrace(p)
	if err != nil {
		panic(err)
	}
	return trace
}

// ccMatrixCells enumerates every valid cell: GEM and PCL with each
// engine under FORCE and NOFORCE (MV-TO is NOFORCE-only), the lock
// engine with its native 2PL, every engine on a synthetic trace under
// both couplings, one PCL-OCC run with a node crash, message loss and
// a lock-wait timeout so remote metadata round trips end in kills and
// timeouts, and the four failover-preset recoveries.
func ccMatrixCells() []ccMatrixCell {
	var cells []ccMatrixCell
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		for _, engine := range []cc.Kind{cc.KindDefault, cc.KindOCC, cc.KindMVTO, cc.KindHAD} {
			for _, force := range []bool{false, true} {
				if engine == cc.KindMVTO && force {
					continue
				}
				name := fmt.Sprintf("%v/%v/force=%v", coupling, engine, force)
				cells = append(cells, ccMatrixCell{name, ccMatrixConfig(coupling, engine, force)})
			}
		}
	}
	cells = append(cells, ccMatrixCell{"le/2pl/force=true", ccMatrixConfig(CouplingLockEngine, cc.KindDefault, true)})

	trace := ccMatrixTrace()
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		for _, engine := range []cc.Kind{cc.KindDefault, cc.KindOCC, cc.KindMVTO, cc.KindHAD} {
			cfg := DefaultTraceConfig(3, trace)
			cfg.Coupling = coupling
			cfg.CC = engine
			cfg.BufferPages = 200
			cfg.Warmup = 200 * time.Millisecond
			cfg.Measure = 2 * time.Second
			cells = append(cells, ccMatrixCell{fmt.Sprintf("%v/%v/trace", coupling, engine), cfg})
		}
	}

	crash := ccMatrixConfig(CouplingPCL, cc.KindOCC, false)
	crash.Measure = 3 * time.Second
	crash.Faults = &FaultConfig{
		Crashes:         []fault.NodeCrash{{Node: 0, At: 700 * time.Millisecond, Repair: time.Second}},
		MessageLossProb: 0.02,
	}
	crash.Faults.LockWaitTimeout = 50 * time.Millisecond
	cells = append(cells, ccMatrixCell{"pcl/occ/force=false/crash", crash})

	// The failover preset's scenarios at its -quick windows: GEM and PCL
	// coupling, each recovering from a disk-resident and a GEM-resident
	// log.
	for _, row := range failoverPreset(failoverQuick).Rows {
		cells = append(cells, ccMatrixCell{"failover/" + row.Label, row.Config})
	}
	return cells
}

// formatCCMatrixMetrics renders a report's metrics deterministically:
// the pointer-valued breakdown is printed by value, not by address,
// in its resource view.
func formatCCMatrixMetrics(rep *Report) string {
	m := rep.Metrics
	b := m.Attribution
	m.Phases, m.Attribution = nil, nil
	s := fmt.Sprintf("%+v", m)
	if b != nil {
		s += fmt.Sprintf(" attribution={N:%d RT:%v Wait:%v Svc:%v}", b.N, b.RT, b.Wait, b.Svc)
	}
	return s
}

// TestCCMatrixGolden pins the metrics of every concurrency-control
// cell byte for byte, so restructuring of the engines cannot shift a
// single table entry unnoticed. Regenerate after an intended behaviour
// change with: go test ./internal/core -run TestCCMatrixGolden -update
func TestCCMatrixGolden(t *testing.T) {
	var got bytes.Buffer
	for _, cell := range ccMatrixCells() {
		rep, err := Run(cell.cfg)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		if rep.Metrics.Commits == 0 {
			t.Errorf("%s: no commits", cell.name)
		}
		fmt.Fprintf(&got, "%s\n%s\n", cell.name, formatCCMatrixMetrics(rep))
	}
	file := filepath.Join("testdata", "cc_matrix.golden")
	if *updateGolden {
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s differs from golden output at line %d (regenerate with -update if the change is intended)", file, i+1)
			}
		}
		t.Fatalf("%s differs from golden output in length", file)
	}
}
