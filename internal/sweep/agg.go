package sweep

import (
	"gemsim/internal/report"
	"gemsim/internal/stats"
)

// Tables aggregates executed (and resumed) results into one table per
// run group, in the groups' first-appearance order. A run fills the
// cells of its row from ColIdx on, one per column: one cell for a
// figure or spec run, the whole row for a preset run. Each cell is the
// mean over its successful replicas; with two or more replicas per
// point the table also carries the 95% confidence half-width
// (stats.ReplicateCI over the replica values). Cells whose every
// replica failed or never ran stay NaN and render as "-". Aggregation
// walks the run list, not the result map, so its output is
// deterministic regardless of completion order.
func Tables(runs []Run, results map[string]Result) []Figure {
	type cell struct{ row, col int }
	type group struct {
		fig       Figure
		rows      map[int]string
		cols      map[int]string
		maxRow    int
		maxCol    int
		cells     map[cell][]float64
		replicate bool
		title     string
		xl, yl    string
	}
	var order []string
	groups := make(map[string]*group)

	for i := range runs {
		r := &runs[i]
		g, ok := groups[r.Group]
		if !ok {
			g = &group{
				rows:  make(map[int]string),
				cols:  make(map[int]string),
				cells: make(map[cell][]float64),
				title: r.Title, xl: r.XLabel, yl: r.YLabel,
			}
			g.fig.ID = r.Group
			groups[r.Group] = g
			order = append(order, r.Group)
		}
		g.rows[r.RowIdx] = r.Row
		for j, c := range r.Cols {
			g.cols[r.ColIdx+j] = c
		}
		if r.RowIdx > g.maxRow {
			g.maxRow = r.RowIdx
		}
		if last := r.ColIdx + len(r.Cols) - 1; last > g.maxCol {
			g.maxCol = last
		}
		if r.Replica > 0 {
			g.replicate = true
		}
		res, ok := results[r.Key]
		if !ok {
			continue // pending after an interrupt
		}
		if res.Err != "" {
			g.fig.Failed++
			continue
		}
		for j := range r.Cols {
			v, ok := res.Values[cellKey(j)]
			if r.Metric != "" {
				if mv, mok := res.Values[r.Metric]; mok {
					v, ok = mv, true
				}
			}
			if ok {
				k := cell{r.RowIdx, r.ColIdx + j}
				g.cells[k] = append(g.cells[k], v)
			}
		}
	}

	figs := make([]Figure, 0, len(order))
	for _, id := range order {
		g := groups[id]
		rows := make([]string, g.maxRow+1)
		for i := range rows {
			rows[i] = g.rows[i]
		}
		cols := make([]string, g.maxCol+1)
		for j := range cols {
			cols[j] = g.cols[j]
		}
		tbl := report.NewTable(g.title, g.xl, g.yl, rows, cols)
		for k, vals := range g.cells {
			if len(vals) == 0 {
				continue
			}
			mean, hw := stats.ReplicateCI(vals)
			tbl.Set(k.row, k.col, mean)
			if g.replicate {
				tbl.SetCI(k.row, k.col, hw)
			}
		}
		g.fig.Table = tbl
		figs = append(figs, g.fig)
	}
	return figs
}
