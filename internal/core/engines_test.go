package core

import (
	"strings"
	"testing"
	"time"

	"gemsim/internal/cc"
)

// TestEngineOffMatchesDefaults is the byte-identity guard for the
// engine seam: the default engine routes every access through the
// native 2PL call sequence, so a config that names it explicitly must
// reproduce the zero-value config's report byte for byte, report no
// engine-initiated work, and keep the engine suffix out of the legacy
// report line.
func TestEngineOffMatchesDefaults(t *testing.T) {
	cfg := DefaultDebitCreditConfig(2)
	cfg.Seed = 11
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 2 * time.Second
	implicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CC = cc.KindDefault
	explicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.String() != explicit.String() {
		t.Fatalf("report differs with the default engine named explicitly:\n%s\nvs\n%s",
			implicit.String(), explicit.String())
	}
	m := implicit.Metrics
	if m.CCAborts != 0 || m.CCValidations != 0 || m.CCValidationFails != 0 {
		t.Fatalf("default engine produced engine work: aborts %d, validations %d (failed %d)",
			m.CCAborts, m.CCValidations, m.CCValidationFails)
	}
	if strings.Contains(implicit.String(), "cc=") {
		t.Fatalf("legacy report line carries an engine suffix: %s", implicit.String())
	}
}
