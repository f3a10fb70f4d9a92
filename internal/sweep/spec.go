package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"gemsim/internal/core"
	"gemsim/internal/report"
)

// Spec is a declarative experiment matrix: a base configuration plus a
// set of axes whose cross product is the run list. It is the JSON
// format behind `experiments -sweep spec.json`.
//
// Example:
//
//	{
//	  "name": "buffer-sweep",
//	  "metric": "rt_ms",
//	  "replications": 3,
//	  "base": {"coupling": "gem", "routing": "random", "warmup": "2s", "measure": "8s"},
//	  "axes": [
//	    {"field": "nodes", "values": [1, 2, 4, 8]},
//	    {"field": "force", "values": [false, true]},
//	    {"field": "bufferPages", "values": [200, 1000]}
//	  ]
//	}
type Spec struct {
	// Name identifies the sweep (table group, run key prefix).
	Name string `json:"name"`
	// Title overrides the rendered table title (default: Name).
	Title string `json:"title,omitempty"`
	// Base is the configuration every run starts from; axis values are
	// applied on top of it.
	Base core.ConfigFile `json:"base"`
	// Axes are the swept dimensions, outermost first. The cross
	// product of their values, times Replications, is the run list.
	Axes []Axis `json:"axes"`
	// RowAxis names the axis used as table rows (the x-axis); the
	// remaining axes combine into the series (column) labels. Default:
	// the "nodes" axis if present, else the first axis.
	RowAxis string `json:"rowAxis,omitempty"`
	// Metric selects the aggregated cell value (default "rt_ms"; see
	// MetricNames for the list).
	Metric string `json:"metric,omitempty"`
	// Replications runs every point this many times with independently
	// derived seeds (default 1); with two or more, cells carry a 95%
	// confidence half-width.
	Replications int `json:"replications,omitempty"`
	// Seed is the base seed every per-run seed derives from
	// (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// Axis is one swept dimension: a configuration knob and its values.
// Field names a knob of the table in internal/core/knobs.go by one of
// its axis names (core.AxisNames lists them; "medium.<FILE>" sets the
// storage medium of the named file). Each value is applied on top of
// the base like the knob's JSON key, and labels the run.
type Axis struct {
	Field  string            `json:"field"`
	Values []json.RawMessage `json:"values"`
}

// LoadSpec reads and validates a sweep spec from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: parse %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return &s, nil
}

// Validate checks the spec's shape, axis fields and metric (axis
// values are checked during expansion, where they are decoded).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec needs a name")
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("spec needs at least one axis")
	}
	seen := make(map[string]bool, len(s.Axes))
	for i, a := range s.Axes {
		if a.Field == "" {
			return fmt.Errorf("axis %d has no field", i)
		}
		if len(a.Values) == 0 {
			return fmt.Errorf("axis %q has no values", a.Field)
		}
		if seen[a.Field] {
			return fmt.Errorf("axis %q declared twice", a.Field)
		}
		if _, ok := core.AxisKnob(a.Field); !ok {
			return fmt.Errorf("unknown axis field %q (want %s)", a.Field, strings.Join(core.AxisNames(), ", "))
		}
		seen[a.Field] = true
	}
	if s.RowAxis != "" && !seen[s.RowAxis] {
		return fmt.Errorf("rowAxis %q is not a declared axis", s.RowAxis)
	}
	if s.Metric != "" {
		if _, ok := Metric(s.Metric); !ok {
			return unknownMetricError(s.Metric)
		}
	}
	if s.Replications < 0 {
		return fmt.Errorf("replications must be non-negative")
	}
	return nil
}

// rowAxisIndex resolves the row axis: the declared one, else "nodes",
// else the first axis.
func (s *Spec) rowAxisIndex() int {
	for i, a := range s.Axes {
		if a.Field == s.RowAxis {
			return i
		}
	}
	if s.RowAxis == "" {
		for i, a := range s.Axes {
			if strings.EqualFold(a.Field, "nodes") {
				return i
			}
		}
	}
	return 0
}

// Runs expands the spec into its run list: the cross product of all
// axis values times the replication count. Keys have the form
// "<name>/<field>=<value>/.../r<k>"; seeds derive from the base seed
// and the key.
func (s *Spec) Runs() ([]Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	metric := s.Metric
	if metric == "" {
		metric = "rt_ms"
	}
	value, ok := Metric(metric)
	if !ok {
		return nil, unknownMetricError(metric)
	}
	cells := func(r *core.Report) ([]float64, error) { return []float64{value(r)}, nil }
	reps := s.Replications
	if reps < 1 {
		reps = 1
	}
	baseSeed := s.Seed
	if baseSeed == 0 {
		baseSeed = 1
	}
	title := s.Title
	if title == "" {
		title = "Sweep " + s.Name
	}
	rowAxis := s.rowAxisIndex()

	// Iterate the cross product with an odometer over the axis value
	// indices, outermost axis slowest — declaration order defines run,
	// row and column order.
	counts := make([]int, len(s.Axes))
	total := reps
	for i, a := range s.Axes {
		counts[i] = len(a.Values)
		total *= len(a.Values)
	}
	knobs := make([]core.Knob, len(s.Axes))
	for i, a := range s.Axes {
		knobs[i], _ = core.AxisKnob(a.Field)
	}
	odo := make([]int, len(s.Axes))
	runs := make([]Run, 0, total)
	rowIdx := make(map[string]int)
	colIdx := make(map[string]int)
	for {
		cf := s.Base // shallow copy; knobs copy maps and blocks before editing
		labels := make([]string, len(s.Axes))
		for i, a := range s.Axes {
			if err := knobs[i].Set(&cf, a.Values[odo[i]]); err != nil {
				return nil, fmt.Errorf("sweep: axis %q: %w", a.Field, err)
			}
			labels[i] = knobs[i].Label(&cf)
		}
		row := labels[rowAxis]
		var colParts []string
		for i, l := range labels {
			if i != rowAxis {
				colParts = append(colParts, l)
			}
		}
		col := strings.Join(colParts, " ")
		if col == "" {
			col = s.Name
		}
		if _, ok := rowIdx[row]; !ok {
			rowIdx[row] = len(rowIdx)
		}
		if _, ok := colIdx[col]; !ok {
			colIdx[col] = len(colIdx)
		}

		cfg, err := cf.ToConfig()
		if err != nil {
			return nil, fmt.Errorf("sweep: point %s: %w", strings.Join(labels, "/"), err)
		}
		cols := []string{col}
		for k := 0; k < reps; k++ {
			key := s.Name + "/" + strings.Join(labels, "/") + fmt.Sprintf("/r%d", k)
			cfg := cfg
			cfg.Seed = DeriveSeed(baseSeed, key)
			runs = append(runs, Run{
				Key:     key,
				Group:   s.Name,
				Title:   title,
				XLabel:  s.Axes[rowAxis].Field,
				YLabel:  MetricLabel(metric),
				Row:     row,
				Cols:    cols,
				RowIdx:  rowIdx[row],
				ColIdx:  colIdx[col],
				Replica: k,
				Metric:  metric,
				Config:  cfg,
				Cells:   cells,
			})
		}

		// Advance the odometer, innermost axis fastest.
		i := len(odo) - 1
		for ; i >= 0; i-- {
			odo[i]++
			if odo[i] < counts[i] {
				break
			}
			odo[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return runs, nil
}

// RunSpec expands and executes a sweep spec and aggregates its table.
func RunSpec(s *Spec, eng Engine) (*report.Table, Summary, error) {
	runs, err := s.Runs()
	if err != nil {
		return nil, Summary{}, err
	}
	results, sum, err := Execute(runs, eng)
	if err != nil {
		return nil, sum, err
	}
	figs := Tables(runs, results)
	if len(figs) == 0 {
		return nil, sum, fmt.Errorf("sweep: %s produced no table", s.Name)
	}
	return figs[0].Table, sum, nil
}
