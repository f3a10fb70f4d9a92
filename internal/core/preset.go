package core

import "time"

// Preset is an extension experiment outside the paper's figure
// catalog: a table of labelled configurations, one row per run. It is
// data only; the sweep engine (internal/sweep) expands it into runs and
// renders its table like any figure.
type Preset struct {
	// ID names the preset, e.g. "failover".
	ID string
	// Title heads the table. Summary and Measures describe the preset
	// in the experiment catalog: what it compares and what it reports.
	Title    string
	Summary  string
	Measures string
	// RowHeader labels the row-label column and ValueLine the values.
	RowHeader string
	ValueLine string
	// Columns name the values of every row.
	Columns []string
	// Rows are the compared configurations in table order.
	Rows []PresetRow
	// Extract turns a finished run into its row values, one per
	// column. An error (a sanity check on the run failed) fails the
	// run.
	Extract func(*Report) ([]float64, error)
	// Suite marks the presets that belong to the full regeneration
	// suite next to the paper's figures (experiments -all).
	Suite bool
}

// PresetRow is one labelled, fully resolved configuration of a preset.
type PresetRow struct {
	Label  string
	Config Config
}

// PresetOptions scales a preset's configurations. Zero fields take the
// preset's defaults: nodes and measurement window are per preset, the
// warm-up is 4s and the seed that of the default configuration (1).
type PresetOptions struct {
	Nodes   int
	Warmup  time.Duration
	Measure time.Duration
	Seed    int64
}

// EnginesOptions names the engine comparison's options; the
// simulator-cost benchmark (simbench) builds its contention workload
// with it.
type EnginesOptions = PresetOptions

// resolve applies a preset's default node count and measurement window
// to the options.
func (o PresetOptions) resolve(nodes int, measure time.Duration) (int, time.Duration, time.Duration) {
	if o.Nodes >= 2 {
		nodes = o.Nodes
	}
	warmup := 4 * time.Second
	if o.Warmup > 0 {
		warmup = o.Warmup
	}
	if o.Measure > 0 {
		measure = o.Measure
	}
	return nodes, warmup, measure
}

// config is the debit-credit configuration a preset starts from: the
// resolved complex size and windows, and the options' seed.
func (o PresetOptions) config(nodes int, measure time.Duration) Config {
	nodes, warmup, measure := o.resolve(nodes, measure)
	cfg := DefaultDebitCreditConfig(nodes)
	cfg.Warmup = warmup
	cfg.Measure = measure
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// Presets returns the extension presets in catalog order, built for
// the given seed. With quick set they use their short windows, chosen
// per preset so each still shows what it measures.
func Presets(seed int64, quick bool) ([]Preset, error) {
	opts := func(q PresetOptions) PresetOptions {
		if !quick {
			q = PresetOptions{}
		}
		q.Seed = seed
		return q
	}
	avail, err := availabilityPreset(opts(availabilityQuick))
	if err != nil {
		return nil, err
	}
	return []Preset{
		failoverPreset(opts(failoverQuick)),
		adaptivePreset(opts(adaptiveQuick)),
		avail,
		enginesPreset(opts(enginesQuick)),
	}, nil
}

// ms converts a duration to float milliseconds for table cells.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
