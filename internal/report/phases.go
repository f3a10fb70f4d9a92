package report

import (
	"time"

	"gemsim/internal/attrib"
)

// PhaseTable renders a per-phase response-time decomposition as a
// table: one row per phase with a non-zero contribution, plus a total
// row. The phase means sum to the mean response time by construction
// (the residual not attributed to any instrumented phase is reported
// as "other"), so the total row equals the run's mean response time.
func PhaseTable(b *attrib.Breakdown) *Table {
	t := NewTable("Response time by phase", "phase", "per committed transaction", nil,
		[]string{"mean ms", "share %"})
	if b == nil || b.N == 0 {
		return t
	}
	for p := attrib.Phase(0); p < attrib.NumPhases; p++ {
		mean := b.PhaseMean(p)
		if mean == 0 {
			continue
		}
		t.AddRow(p.String(),
			float64(mean)/float64(time.Millisecond),
			100*b.PhaseShare(p))
	}
	t.AddRow("total",
		float64(b.MeanRT())/float64(time.Millisecond),
		100)
	return t
}
