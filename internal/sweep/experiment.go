package sweep

import (
	"fmt"

	"gemsim/internal/core"
	"gemsim/internal/report"
)

// Figure is one aggregated result table of a sweep.
type Figure struct {
	// ID is the table's group key (figure or preset id, or sweep name).
	ID string
	// Table is the aggregated result matrix (replica means, plus 95%
	// confidence half-widths when the sweep was replicated).
	Table *report.Table
	// Failed counts this figure's failed runs; their cells are "-".
	Failed int
}

// ExperimentRuns expands one paper experiment into its run list: the
// cross product of series, node counts and replicas. Run keys have the
// form "fig/<id>/<series>/n=<nodes>/r<replica>"; each run's seed
// derives from the base seed (opts.Seed, default 1) and its key.
func ExperimentRuns(e *core.Experiment, opts core.ExperimentOptions) []Run {
	nodes := e.PointNodes(opts)
	reps := opts.Replications
	if reps < 1 {
		reps = 1
	}
	runs := make([]Run, 0, len(e.Series)*len(nodes)*reps)
	cells := func(r *core.Report) ([]float64, error) { return []float64{e.Value(r)}, nil }
	for j, s := range e.Series {
		cols := []string{s.Label}
		for i, n := range nodes {
			for k := 0; k < reps; k++ {
				key := fmt.Sprintf("fig/%s/%s/n=%d/r%d", e.ID, s.Label, n, k)
				cfg := e.PointConfig(j, n, opts)
				cfg.Seed = DeriveSeed(cfg.Seed, key)
				runs = append(runs, Run{
					Key:     key,
					Group:   e.ID,
					Title:   fmt.Sprintf("Fig. %s: %s", e.ID, e.Title),
					XLabel:  "nodes",
					YLabel:  e.Metric,
					Row:     fmt.Sprintf("%d", n),
					Cols:    cols,
					RowIdx:  i,
					ColIdx:  j,
					Replica: k,
					Config:  cfg,
					Cells:   cells,
				})
			}
		}
	}
	return runs
}

// PresetRuns expands a preset into its run list: one run per table
// row and replica. Replica 0 keeps the key "<preset>/<row label>" and
// the seed its preset row set; replica k >= 1 is keyed
// "<preset>/<row label>/r<k>" and seeded from the row's seed and "r<k>"
// only. So rows that share a seed in replica 0 share one in every
// replica: a paired comparison of two rows sees common random numbers
// in each replica. A run's cells are the preset's row values.
func PresetRuns(p *core.Preset, reps int) []Run {
	if reps < 1 {
		reps = 1
	}
	runs := make([]Run, 0, len(p.Rows)*reps)
	for i, row := range p.Rows {
		for k := 0; k < reps; k++ {
			key, cfg := p.ID+"/"+row.Label, row.Config
			if k > 0 {
				key = fmt.Sprintf("%s/r%d", key, k)
				cfg.Seed = DeriveSeed(cfg.Seed, fmt.Sprintf("r%d", k))
			}
			runs = append(runs, Run{
				Key:     key,
				Group:   p.ID,
				Title:   p.Title,
				XLabel:  p.RowHeader,
				YLabel:  p.ValueLine,
				Row:     row.Label,
				Cols:    p.Columns,
				RowIdx:  i,
				Replica: k,
				Config:  cfg,
				Cells:   p.Extract,
			})
		}
	}
	return runs
}

// RunFigure executes one experiment through the engine and aggregates
// its table.
func RunFigure(e *core.Experiment, opts core.ExperimentOptions, eng Engine) (*report.Table, Summary, error) {
	figs, sum, err := RunFigures([]core.Experiment{*e}, opts, eng)
	if err != nil {
		return nil, sum, err
	}
	if len(figs) == 0 {
		return nil, sum, fmt.Errorf("sweep: experiment %s produced no table (interrupted before any run finished)", e.ID)
	}
	return figs[0].Table, sum, nil
}

// RunFigures executes a set of experiments as ONE combined sweep — all
// runs share the worker pool, so small figures do not serialize behind
// large ones — and aggregates one table per experiment, in input order.
func RunFigures(exps []core.Experiment, opts core.ExperimentOptions, eng Engine) ([]Figure, Summary, error) {
	var runs []Run
	for i := range exps {
		runs = append(runs, ExperimentRuns(&exps[i], opts)...)
	}
	if eng.Progress == nil && opts.Progress != nil {
		eng.Progress = func(run *Run, res Result, done, total int) {
			if res.Report != nil {
				opts.Progress(run.Group, run.Cols[0], run.Config.Nodes, res.Report)
			}
		}
	}
	results, sum, err := Execute(runs, eng)
	if err != nil {
		return nil, sum, err
	}
	return Tables(runs, results), sum, nil
}
