package sweep

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gemsim/internal/core"
	"gemsim/internal/stats"
)

// enginesRefReplicas is the replica count of testdata/engines_ref.csv.
// A 30-replica pilot was too noisy for the high-contention optimistic
// cells (90% half-widths of about 3.4% against a ±5% margin); 90
// replicas pass each cell with probability above 0.99 when the sources
// agree in distribution.
const enginesRefReplicas = 90

// enginesEquivalence declares the margins of the re-baseline, once: a
// cell is equivalent when the 90% Welch interval of its replicate-mean
// difference lies inside ±margin.
var enginesEquivalence = []struct {
	col    string  // the preset column
	field  int     // its field in testdata/engines_ref.csv
	rel    float64 // margin as a share of the reference mean
	points float64 // or as an absolute margin
}{
	{col: "tput [tps]", field: 2, rel: 0.05},
	{col: "RT [ms]", field: 3, rel: 0.05},
	{col: "restart%", field: 4, points: 2.5},
}

// TestEnginesEquivalence is the replicated statistical-equivalence test
// behind the engines preset's re-baseline onto the one closed-loop
// source. testdata/engines_ref.csv holds the per-replica tput, mean RT
// and restart% of every cell under the retired per-terminal source
// (one process and one think stream per terminal), written by
// `experiments -fig engines -quick -reps 90 -store ref.jsonl` with that
// source and preset replication in place. The test runs the same runs (same keys,
// seeds and configurations) on today's source and requires every cell
// and metric to be equivalent within its declared margin.
func TestEnginesEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("1080 engine runs; skipped with -short")
	}
	if raceEnabled {
		t.Skip("1080 engine runs; too slow under the race detector")
	}
	ref := readEnginesRef(t)
	presets, err := core.Presets(1, true)
	if err != nil {
		t.Fatal(err)
	}
	var p *core.Preset
	for i := range presets {
		if presets[i].ID == "engines" {
			p = &presets[i]
		}
	}
	if p == nil {
		t.Fatal("no engines preset")
	}
	runs := PresetRuns(p, enginesRefReplicas)
	results, sum, err := Execute(runs, Engine{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed > 0 {
		t.Fatalf("%d runs failed: %v", sum.Failed, sum.Failures)
	}
	for _, m := range enginesEquivalence {
		j := -1
		for c, name := range p.Columns {
			if name == m.col {
				j = c
			}
		}
		if j < 0 {
			t.Fatalf("engines preset has no column %q", m.col)
		}
		got := make(map[string][]float64)
		for _, r := range runs {
			got[r.Row] = append(got[r.Row], results[r.Key].Values[cellKey(j)])
		}
		for _, row := range p.Rows {
			want := ref[row.Label][m.field]
			if len(want) != enginesRefReplicas {
				t.Fatalf("%s: %d reference replicas, want %d", row.Label, len(want), enginesRefReplicas)
			}
			refMean, _ := stats.ReplicateCI(want)
			margin := m.points
			if m.rel > 0 {
				margin = m.rel * refMean
			}
			lo, hi, ok := stats.Equivalent(want, got[row.Label], margin)
			t.Logf("%-10s %-10s ref %8.4g  diff in [%+.3g, %+.3g]  margin ±%.3g", row.Label, m.col, refMean, lo, hi, margin)
			if !ok {
				t.Errorf("%s %s: 90%% interval of the difference [%+.3g, %+.3g] is not inside ±%.3g",
					row.Label, m.col, lo, hi, margin)
			}
		}
	}
}

// readEnginesRef loads testdata/engines_ref.csv as row label -> field
// -> per-replica values.
func readEnginesRef(t *testing.T) map[string]map[int][]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "engines_ref.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[string]map[int][]float64)
	for i, rec := range recs[1:] {
		if ref[rec[0]] == nil {
			ref[rec[0]] = make(map[int][]float64)
		}
		for _, m := range enginesEquivalence {
			v, err := strconv.ParseFloat(rec[m.field], 64)
			if err != nil {
				t.Fatalf("line %d: %v", i+2, err)
			}
			ref[rec[0]][m.field] = append(ref[rec[0]][m.field], v)
		}
	}
	return ref
}
