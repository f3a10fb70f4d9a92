// Command experiments regenerates the tables and figures of the
// paper's evaluation section (section 4) and of the extension presets
// (failover, adaptive, availability, engines, hyperscale). Every figure
// and preset is a sweep: its runs expand into one list and execute on
// a multi-core worker pool (-jobs); results are byte-identical for any
// worker count.
//
// Examples:
//
//	experiments -list                 # show the experiment catalog
//	experiments -anchors              # paper's in-text anchors vs measured
//	experiments -table 4.1            # print the parameter settings
//	experiments -fig 4.1              # regenerate one figure
//	experiments -fig failover         # run one preset
//	experiments -all                  # regenerate every figure
//	experiments -fig 4.5-NOFORCE-buf200 -csv -plot
//	experiments -all -quick -jobs 8   # short windows, eight workers
//	experiments -all -store sweep.jsonl            # persist results
//	experiments -all -store sweep.jsonl -resume    # finish a killed sweep
//	experiments -sweep spec.json -reps 5           # declarative matrix, 95% CIs
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/node"
	"gemsim/internal/sweep"
	"gemsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available experiments")
		table    = fs.String("table", "", "print a parameter table (4.1)")
		fig      = fs.String("fig", "", "run one experiment by figure id")
		anchors  = fs.Bool("anchors", false, "reproduce the paper's in-text quantitative anchors")
		all      = fs.Bool("all", false, "run every experiment")
		quick    = fs.Bool("quick", false, "short simulation windows (fast, noisier)")
		csvOut   = fs.Bool("csv", false, "additionally print CSV")
		mdOut    = fs.Bool("markdown", false, "additionally print a markdown table")
		plotOut  = fs.Bool("plot", false, "additionally print an ASCII plot")
		seed     = fs.Int64("seed", 1, "base random seed (per-run seeds derive from it)")
		verbose  = fs.Bool("v", false, "print per-run progress")
		progress = fs.Bool("progress", false, "print a heartbeat to stderr after every run: done/total, ETA, dominant bottleneck")

		jobs       = fs.Int("jobs", runtime.NumCPU(), "parallel workers (tables are identical for any value)")
		reps       = fs.Int("reps", 1, "replications per point; 2 or more add 95% confidence half-widths")
		sweepSpec  = fs.String("sweep", "", "run a declarative sweep spec (JSON file)")
		storePath  = fs.String("store", "", "persistent JSONL result store")
		resume     = fs.Bool("resume", false, "skip runs already completed in -store")
		retries    = fs.Int("retries", 0, "re-attempts after a failed run")
		runTimeout = fs.Duration("run-timeout", 0, "per-run wall-clock timeout (0 = none)")

		traceOut = fs.String("trace-out", "", "per-run event trace files (run label inserted before the extension)")
		traceFmt = fs.String("trace-format", "jsonl", "event trace encoding: jsonl or perfetto")
		tsOut    = fs.String("timeseries", "", "per-run time-series files (run label inserted before the extension)")
		sampleIv = fs.Duration("sample-interval", 500*time.Millisecond, "time-series window length")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *storePath == "" {
		return fmt.Errorf("-resume needs -store (there is nothing to resume from)")
	}

	sink := &traceSink{events: *traceOut, timeseries: *tsOut, interval: *sampleIv}
	if *traceOut != "" {
		format, ok := trace.ParseFormat(*traceFmt)
		if !ok {
			return fmt.Errorf("unknown trace format %q (want jsonl or perfetto)", *traceFmt)
		}
		sink.format = format
	}
	defer sink.closeAll()

	if *table == "4.1" {
		printTable41()
		return nil
	}
	if *table != "" {
		return fmt.Errorf("unknown table %q (only 4.1 is a parameter table)", *table)
	}
	if *anchors {
		return runAnchors(*seed, *jobs)
	}

	eng := sweep.Engine{Jobs: *jobs, Timeout: *runTimeout, Retries: *retries, Resume: *resume}
	if *storePath != "" {
		st, err := sweep.OpenStore(*storePath)
		if err != nil {
			return err
		}
		defer st.Close()
		eng.Store = st
	}
	if *verbose || *progress {
		eng.Progress = progressFunc(*verbose, *progress)
	}
	// SIGINT stops the sweep gracefully: in-flight runs finish and
	// reach the store, so `-store ... -resume` picks up where the
	// interrupted invocation left off.
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			close(stop)
		}
	}()
	eng.Stop = stop

	if *sweepSpec != "" {
		spec, err := sweep.LoadSpec(*sweepSpec)
		if err != nil {
			return err
		}
		if *seed != 1 {
			spec.Seed = *seed
		}
		if *reps > 1 && spec.Replications < *reps {
			spec.Replications = *reps
		}
		runs, err := spec.Runs()
		if err != nil {
			return err
		}
		return executeAndPrint(runs, eng, sink, *csvOut, *mdOut, *plotOut, *storePath)
	}

	exps, err := core.Experiments(*seed)
	if err != nil {
		return err
	}
	presets, err := core.Presets(*seed, *quick)
	if err != nil {
		return err
	}
	if *list {
		for i := range exps {
			e := &exps[i]
			fmt.Printf("%-20s %s (%d series x %d node counts; %s)\n",
				e.ID, e.Title, len(e.Series), len(e.Nodes), e.Metric)
		}
		for _, p := range presets {
			fmt.Printf("%-20s %s (%d configs; %s)\n", p.ID, p.Summary, len(p.Rows), p.Measures)
		}
		fmt.Printf("%-20s %s\n", "",
			"(the engine is also a sweep axis: \"cc\" with values 2pl, mvto, occ, had)")
		fmt.Printf("%-20s %s\n", "hyperscale",
			"kernel scaling: pooled closed-loop terminals, hundreds of nodes at constant load (2 series x 3 node counts; throughput; not part of -all)")
		return nil
	}

	opts := core.DefaultExperimentOptions()
	opts.Seed = *seed
	opts.Replications = *reps
	if *quick {
		opts.Warmup = time.Second
		opts.Measure = 5 * time.Second
	}

	// One combined run list: figures and presets share the worker
	// pool, so small tables never serialize behind large ones.
	var runs []sweep.Run
	switch {
	case *all:
		for i := range exps {
			runs = append(runs, sweep.ExperimentRuns(&exps[i], opts)...)
		}
		for i := range presets {
			if presets[i].Suite {
				runs = append(runs, sweep.PresetRuns(&presets[i], *reps)...)
			}
		}
	case *fig == "hyperscale":
		// Not part of -all: its full-size runs are deliberately
		// enormous. -quick shrinks the complex instead of only the
		// windows, so the node axis comes from the preset itself.
		e := core.HyperscaleExperiment(*quick)
		runs = sweep.ExperimentRuns(&e, opts)
	case *fig != "":
		for i := range exps {
			if exps[i].ID == *fig {
				runs = append(runs, sweep.ExperimentRuns(&exps[i], opts)...)
			}
		}
		for i := range presets {
			if presets[i].ID == *fig {
				runs = append(runs, sweep.PresetRuns(&presets[i], *reps)...)
			}
		}
		if len(runs) == 0 {
			return fmt.Errorf("unknown experiment %q (use -list)", *fig)
		}
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -table, -fig, -sweep or -all")
	}
	return executeAndPrint(runs, eng, sink, *csvOut, *mdOut, *plotOut, *storePath)
}

// executeAndPrint attaches tracing, executes the run list and prints
// the aggregated tables. Per-run failures do not abort the sweep: they
// are collected (and persisted when a store is attached), summarized on
// stderr, and turned into a non-zero exit at the end.
func executeAndPrint(runs []sweep.Run, eng sweep.Engine, sink *traceSink, csvOut, mdOut, plotOut bool, storePath string) error {
	if sink.enabled() {
		for i := range runs {
			sink.attach(&runs[i].Config, runs[i].Key)
		}
		if sink.err != nil {
			return sink.err // a filename collision must abort before anything runs
		}
	}
	results, sum, err := sweep.Execute(runs, eng)
	if err != nil {
		return err
	}
	for _, f := range sweep.Tables(runs, results) {
		fmt.Println(f.Table.Render())
		if csvOut {
			fmt.Println(f.Table.CSV())
		}
		if mdOut {
			fmt.Println(f.Table.Markdown())
		}
		if plotOut {
			fmt.Println(f.Table.Plot(12))
		}
	}
	// Timing and progress live on stderr so stdout is byte-identical
	// across -jobs values.
	fmt.Fprintf(os.Stderr, "(%s)\n", sum.String())
	if sum.Interrupted {
		hint := ""
		if storePath != "" {
			hint = fmt.Sprintf(" — finish with -resume -store %s", storePath)
		}
		return fmt.Errorf("interrupted: %d of %d runs still pending%s", sum.Pending, sum.Total, hint)
	}
	if err := sink.closeAll(); err != nil {
		return err
	}
	if sum.Failed > 0 {
		fmt.Fprintf(os.Stderr, "failed runs:\n")
		for _, f := range sum.Failures {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", f.Key, firstLine(f.Err))
		}
		return fmt.Errorf("%d of %d runs failed (see stderr for details)", sum.Failed, sum.Total)
	}
	return nil
}

// progressFunc builds the engine progress callback: per-run result
// lines (-v), and a heartbeat (-progress) with completion count, ETA
// extrapolated from the mean wall time per finished run, and the last
// finished run's dominant bottleneck. Both write to stderr only, so
// stdout stays byte-identical across -jobs values.
func progressFunc(verbose, heartbeat bool) func(run *sweep.Run, res sweep.Result, done, total int) {
	start := time.Now()
	return func(run *sweep.Run, res sweep.Result, done, total int) {
		if verbose {
			if res.Err != "" {
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s: FAILED: %s\n", done, total, run.Key, firstLine(res.Err))
			} else {
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s: %v\n", done, total, run.Key, res.Report)
			}
		}
		if !heartbeat {
			return
		}
		line := fmt.Sprintf("  progress %d/%d (%.0f%%)", done, total, 100*float64(done)/float64(total))
		if elapsed := time.Since(start); done > 0 && done < total {
			eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			line += fmt.Sprintf("  eta %v", eta.Round(time.Second))
		}
		if rep := res.Report; rep != nil && rep.Metrics.Attribution != nil && rep.Metrics.Attribution.N > 0 {
			line += fmt.Sprintf("  bottleneck %s (%.0f%% of RT)",
				rep.Metrics.DominantBottleneck, 100*rep.Metrics.DominantShare)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// traceSink derives per-run tracing outputs from the -trace-out and
// -timeseries filename templates: the sanitized run label is inserted
// before the extension ("out.json" becomes
// "out-fig-4.1-GEM-n-4-r0.json"). Labels contain characters that are
// unsafe in filenames ("/", spaces); every rune outside [A-Za-z0-9._-]
// becomes "-", and two labels sanitizing to the same path are an error.
// Files stay open until the whole suite finishes; the first error is
// remembered and reported at the end.
type traceSink struct {
	events     string
	timeseries string
	format     trace.Format
	interval   time.Duration
	files      []*os.File
	paths      map[string]string // created path -> originating label
	err        error
}

func (s *traceSink) enabled() bool { return s.events != "" || s.timeseries != "" }

// attach opens the per-run output files and sets cfg.Tracing.
func (s *traceSink) attach(cfg *core.Config, label string) {
	if !s.enabled() {
		return
	}
	tc := &core.TraceConfig{Format: s.format, SampleInterval: s.interval}
	if s.events != "" {
		if f := s.create(s.events, label); f != nil {
			tc.Events = f
		}
	}
	if s.timeseries != "" {
		if f := s.create(s.timeseries, label); f != nil {
			tc.TimeSeries = f
		}
	}
	cfg.Tracing = tc
}

// sanitizeLabel maps every rune outside [A-Za-z0-9._-] to '-'.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, label)
}

func (s *traceSink) create(tpl, label string) *os.File {
	ext := filepath.Ext(tpl)
	path := strings.TrimSuffix(tpl, ext) + "-" + sanitizeLabel(label) + ext
	if prev, taken := s.paths[path]; taken {
		if s.err == nil {
			s.err = fmt.Errorf("trace output collision: run labels %q and %q both sanitize to %s", prev, label, path)
		}
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return nil
	}
	if s.paths == nil {
		s.paths = make(map[string]string)
	}
	s.paths[path] = label
	s.files = append(s.files, f)
	return f
}

func (s *traceSink) closeAll() error {
	for _, f := range s.files {
		if err := f.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	s.files = nil
	return s.err
}

func printTable41() {
	p := node.DefaultParams(10)
	fmt.Println("Table 4.1: Parameter settings for debit-credit workload")
	fmt.Printf("  number of nodes N      1 - 10\n")
	fmt.Printf("  arrival rate           100 TPS per node\n")
	fmt.Printf("  DB size (per 100 TPS)  BRANCH 100 (bf 1), TELLER 1000 (bf 10, clustered),\n")
	fmt.Printf("                         ACCOUNT 10,000,000 (bf 10), HISTORY (bf 20)\n")
	fmt.Printf("  path length            %.0f instructions per transaction\n", p.BOTInstr+4*p.RefInstr+p.EOTInstr)
	fmt.Printf("  lock mode              page locks for BRANCH, TELLER, ACCOUNT; no locks for HISTORY\n")
	fmt.Printf("  CPU capacity           %d processors of %.0f MIPS per node\n", p.CPUsPerNode, p.MIPSPerCPU)
	fmt.Printf("  DB buffer size         200 (1000) pages per node\n")
	fmt.Printf("  GEM                    %d server; %v per page; %v per entry\n",
		p.GEM.Servers, p.GEM.PageAccess, p.GEM.EntryAccess)
	fmt.Printf("  communication          %.0f MB/s; %.0f instr per short, %.0f per long send/receive\n",
		p.Net.BandwidthBytesPerSec/1e6, p.Net.ShortInstr, p.Net.LongInstr)
	fmt.Printf("  I/O overhead           %.0f instructions per page (GEM: %.0f for initialization)\n",
		p.IOInstr, p.GEMIOInstr)
	fmt.Printf("  avg disk access time   15 ms DB disks; 5 ms log disks\n")
	fmt.Printf("  other I/O delays       1 ms controller; 0.4 ms transfer per page\n")
}
