package report

import (
	"strings"
	"testing"
	"time"

	"gemsim/internal/attrib"
)

func TestPhaseTable(t *testing.T) {
	var b attrib.Breakdown
	v := &attrib.Vector{}
	v.AddPhase(attrib.PhaseCPU, 30*time.Millisecond)
	v.AddPhase(attrib.PhaseIORead, 15*time.Millisecond)
	b.Observe(v, 50*time.Millisecond) // 5ms residual -> "other"

	out := PhaseTable(&b).Render()
	for _, want := range []string{"cpu", "io-read", "other", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("phase table missing %q row:\n%s", want, out)
		}
	}
	if strings.Contains(out, "lock-wait") {
		t.Errorf("phase table contains zero-contribution row:\n%s", out)
	}
	// The total row carries the mean RT (50 ms) and a 100% share.
	if !strings.Contains(out, "50.0") || !strings.Contains(out, "100") {
		t.Errorf("total row wrong:\n%s", out)
	}

	// Nil and empty breakdowns render header-only tables.
	if got := PhaseTable(nil).Render(); strings.Contains(got, "total") {
		t.Errorf("nil breakdown rendered rows:\n%s", got)
	}
}
