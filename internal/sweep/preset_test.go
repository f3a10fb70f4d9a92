package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gemsim/internal/core"
)

// fakePreset is a three-row preset whose extractor rejects the run of
// two nodes, the way a preset's sanity check rejects a run that lacks
// what the row reports (e.g. a crash that never recovered).
func fakePreset() core.Preset {
	p := core.Preset{
		ID:        "fake",
		Title:     "Fake preset",
		RowHeader: "config",
		ValueLine: "fake metrics",
		Columns:   []string{"tput", "seed mod 97", "nodes"},
		Extract: func(rep *core.Report) ([]float64, error) {
			if rep.Config.Nodes == 2 {
				return nil, errors.New("expected 1 recovered crash, got 0")
			}
			m := &rep.Metrics
			return []float64{m.Throughput, float64(m.Commits), float64(rep.Config.Nodes)}, nil
		},
	}
	for _, n := range []int{1, 2, 3} {
		cfg := core.DefaultDebitCreditConfig(n)
		cfg.Seed = int64(40 + n)
		p.Rows = append(p.Rows, core.PresetRow{Label: fmt.Sprintf("n%d", n), Config: cfg})
	}
	return p
}

// TestPresetRuns checks the expansion: one run per row, keyed
// "<preset>/<label>", filling the whole row and keeping the row's seed.
func TestPresetRuns(t *testing.T) {
	p := fakePreset()
	runs := PresetRuns(&p, 1)
	if len(runs) != 3 {
		t.Fatalf("%d runs, want 3", len(runs))
	}
	for i, r := range runs {
		if want := "fake/" + p.Rows[i].Label; r.Key != want {
			t.Errorf("run %d key %q, want %q", i, r.Key, want)
		}
		if r.Config.Seed != p.Rows[i].Config.Seed {
			t.Errorf("%s: seed %d, want the row's %d", r.Key, r.Config.Seed, p.Rows[i].Config.Seed)
		}
		if r.RowIdx != i || r.ColIdx != 0 || len(r.Cols) != 3 {
			t.Errorf("%s: placed at row %d col %d over %d columns", r.Key, r.RowIdx, r.ColIdx, len(r.Cols))
		}
	}

	// Replicated: replica 0 is the unreplicated run, replica k >= 1 is
	// keyed "<preset>/<label>/r<k>" with a seed of its own.
	reps := PresetRuns(&p, 3)
	if len(reps) != 3*len(runs) {
		t.Fatalf("%d replicated runs, want %d", len(reps), 3*len(runs))
	}
	seeds := make(map[int64]string)
	for _, r := range reps {
		want := "fake/" + r.Row
		if r.Replica > 0 {
			want = fmt.Sprintf("%s/r%d", want, r.Replica)
		}
		if r.Key != want {
			t.Errorf("replica %d of %s: key %q, want %q", r.Replica, r.Row, r.Key, want)
		}
		if r.Replica == 0 && !reflect.DeepEqual(r.Config, runs[r.RowIdx].Config) {
			t.Errorf("%s: replica 0 differs from the unreplicated run", r.Key)
		}
		if other, dup := seeds[r.Config.Seed]; dup {
			t.Errorf("%s and %s share seed %d", r.Key, other, r.Config.Seed)
		}
		seeds[r.Config.Seed] = r.Key
	}
}

// TestPresetRowErrorFailsRun: a row extractor's error makes its run a
// failure that renders as "-" cells, while the other rows of the table
// stay intact.
func TestPresetRowErrorFailsRun(t *testing.T) {
	p := fakePreset()
	runs := PresetRuns(&p, 1)
	results, sum, err := Execute(runs, Engine{Jobs: 2, exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 || len(sum.Failures) != 1 || sum.Failures[0].Key != "fake/n2" {
		t.Fatalf("summary %s, failures %v", sum.String(), sum.Failures)
	}
	if !strings.Contains(sum.Failures[0].Err, "expected 1 recovered crash") {
		t.Fatalf("failure does not carry the extractor's error: %q", sum.Failures[0].Err)
	}
	figs := Tables(runs, results)
	if len(figs) != 1 || figs[0].Failed != 1 {
		t.Fatalf("figures %+v", figs)
	}
	got := figs[0].Table.Render()
	want := "Fake preset\n" +
		"values: fake metrics\n" +
		"config  tput  seed mod 97  nodes\n" +
		"n1       100         42.0   1.00\n" +
		"n2         -            -      -\n" +
		"n3       300         44.0   3.00\n"
	if got != want {
		t.Fatalf("table:\n%s\nwant:\n%s", got, want)
	}
}

// TestPresetResumeRebuildsRows: a resumed preset run rebuilds its row
// from the values in the store.
func TestPresetResumeRebuildsRows(t *testing.T) {
	p := fakePreset()
	p.Rows = append(p.Rows[:1], p.Rows[2:]...) // no failing row
	runs := PresetRuns(&p, 1)
	st, err := OpenStore(tmpStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first, _, err := Execute(runs, Engine{Jobs: 1, Store: st, exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	resumed, sum, err := Execute(runs, Engine{Jobs: 1, Store: st, Resume: true, exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != len(runs) || sum.Executed != 0 {
		t.Fatalf("resume: %s", sum.String())
	}
	if a, b := renderAll(runs, first), renderAll(runs, resumed); a != b {
		t.Fatalf("resumed table differs:\n%s\n--- vs ---\n%s", b, a)
	}
}
