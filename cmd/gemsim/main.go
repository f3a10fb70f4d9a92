// Command gemsim runs a single database sharing configuration and
// prints its measurements.
//
// Examples:
//
//	gemsim -nodes 4 -coupling gem -routing affinity -buffer 200
//	gemsim -nodes 8 -coupling pcl -force -routing random -measure 20s
//	gemsim -nodes 4 -bt-medium gem          # BRANCH/TELLER in GEM
//	gemsim -nodes 4 -trace workload.trc     # trace-driven run
//	gemsim -config c.json -coupling pcl     # flags override the file
//
// The configuration flags are the knobs of core.Knobs; without -config
// they start from 1 node, 4s warm-up and 16s measurement.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/report"
	"gemsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gemsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, out, err := parseArgs(args)
	if err != nil {
		return err
	}
	return execute(cfg, out)
}

// outputs holds the flags that select what a run writes and prints.
type outputs struct {
	traceOut, traceFmt, tsOut       string
	cpuProfile, memProfile          string
	sampleIv                        time.Duration
	phases, attrTbl, quiet, verbose bool
}

// parseArgs turns the command line into the configuration to run and
// the output selection. The configuration flags come from the knob
// table (core.Knobs) and write a core.ConfigFile: gemsim's defaults,
// or the -config file, with every explicitly set flag on top.
func parseArgs(args []string) (core.Config, outputs, error) {
	fs := flag.NewFlagSet("gemsim", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "JSON configuration file; explicitly set configuration flags override it")
	byFlag := make(map[string]core.Knob)
	for _, k := range core.Knobs() {
		if k.Flag == "" {
			continue
		}
		byFlag[k.Flag] = k
		switch k.Kind {
		case core.KnobInt:
			fs.Int64(k.Flag, 0, k.Usage)
		case core.KnobFloat:
			fs.Float64(k.Flag, 0, k.Usage)
		case core.KnobBool:
			fs.Bool(k.Flag, false, k.Usage)
		case core.KnobString:
			fs.String(k.Flag, "", k.Usage)
		case core.KnobDuration:
			fs.Duration(k.Flag, 0, k.Usage)
		}
	}
	var out outputs
	fs.StringVar(&out.traceOut, "trace-out", "", "write an event trace to this file (see -trace-format)")
	fs.StringVar(&out.traceFmt, "trace-format", "jsonl", "event trace encoding: jsonl or perfetto")
	fs.StringVar(&out.tsOut, "timeseries", "", "write windowed time-series samples (JSONL) to this file")
	fs.StringVar(&out.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&out.memProfile, "memprofile", "", "write the heap allocation profile to this file at run end (one sample per 4 KB allocated)")
	fs.DurationVar(&out.sampleIv, "sample-interval", 500*time.Millisecond, "time-series window length")
	fs.BoolVar(&out.phases, "phases", false, "print the per-phase response time breakdown")
	fs.BoolVar(&out.attrTbl, "attrib", false, "print the per-resource bottleneck attribution tables")
	fs.BoolVar(&out.verbose, "v", false, "print detailed metrics")
	fs.BoolVar(&out.quiet, "quiet", false, "suppress the summary line (useful with -trace-out/-timeseries)")
	if err := fs.Parse(args); err != nil {
		return core.Config{}, out, err
	}
	if out.quiet && out.verbose {
		return core.Config{}, out, fmt.Errorf("-quiet and -v are mutually exclusive")
	}
	files := []struct{ flag, path string }{
		{"-trace-out", out.traceOut}, {"-timeseries", out.tsOut},
		{"-cpuprofile", out.cpuProfile}, {"-memprofile", out.memProfile},
	}
	for i, a := range files {
		for _, b := range files[i+1:] {
			if a.path != "" && a.path == b.path {
				return core.Config{}, out, fmt.Errorf("%s and %s both write to %q; give them distinct paths", a.flag, b.flag, a.path)
			}
		}
	}

	cf := core.ConfigFile{Nodes: 1, Warmup: "4s", Measure: "16s"}
	var err error
	if *cfgPath != "" {
		if cf, err = core.ReadConfigFile(*cfgPath); err != nil {
			return core.Config{}, out, err
		}
	}
	fs.Visit(func(f *flag.Flag) {
		if k, ok := byFlag[f.Name]; ok && err == nil {
			if e := k.SetString(&cf, f.Value.String()); e != nil {
				err = fmt.Errorf("-%s: %w", f.Name, e)
			}
		}
	})
	if err != nil {
		return core.Config{}, out, err
	}
	cfg, err := cf.ToConfig()
	if err != nil {
		return core.Config{}, out, err
	}
	if (out.attrTbl || out.phases) && cfg.Attribution.Off {
		return core.Config{}, out, fmt.Errorf("-attrib and -phases need attribution on (drop -attrib-off or the file's attribution.off)")
	}
	return cfg, out, nil
}

// execute attaches the requested tracing outputs and profiles, runs the
// configuration and prints the results.
func execute(cfg core.Config, out outputs) error {
	if out.traceOut != "" || out.tsOut != "" {
		tc := &core.TraceConfig{SampleInterval: out.sampleIv}
		if out.traceOut != "" {
			format, ok := trace.ParseFormat(out.traceFmt)
			if !ok {
				return fmt.Errorf("unknown trace format %q (want jsonl or perfetto)", out.traceFmt)
			}
			f, err := os.Create(out.traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			tc.Events = f
			tc.Format = format
		}
		if out.tsOut != "" {
			f, err := os.Create(out.tsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			tc.TimeSeries = f
		}
		cfg.Tracing = tc
	}
	if out.memProfile != "" {
		// One sample per 4 KB allocated: the default, one per 512 KB,
		// leaves a short run with a handful of samples.
		runtime.MemProfileRate = 4096
	}
	stopCPU := func() error { return nil }
	if out.cpuProfile != "" {
		var err error
		if stopCPU, err = startCPUProfile(out.cpuProfile); err != nil {
			return err
		}
	}

	rep, err := core.Run(cfg)
	if e := stopCPU(); err == nil {
		err = e
	}
	if err != nil {
		return err
	}
	if out.memProfile != "" {
		if err := writeAllocProfile(out.memProfile); err != nil {
			return err
		}
	}
	if !out.quiet {
		fmt.Println(rep)
	}
	if out.verbose {
		printDetails(rep)
	}
	if m := &rep.Metrics; m.Phases != nil && m.Phases.N > 0 && (out.verbose || out.phases) {
		fmt.Print(report.PhaseTable(m.Phases).Render())
	}
	if m := &rep.Metrics; m.Attribution != nil && m.Attribution.N > 0 && (out.verbose || out.attrTbl) {
		fmt.Printf("dominant bottleneck     %s (%.1f%% of mean RT)\n",
			m.DominantBottleneck, 100*m.DominantShare)
		fmt.Print(report.AttribTable(m.Attribution).Render())
		fmt.Print(report.LawsTable(m.StationLaws).Render())
		for _, w := range m.LawWarnings {
			fmt.Println("warning:", w)
		}
	}
	return nil
}

// startCPUProfile starts writing a CPU profile to path; the returned
// function stops it and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeAllocProfile writes the heap profile of every allocation since
// the program started (pprof's "allocs" profile) to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile reports allocations as of the last GC
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printDetails(rep *core.Report) {
	m := &rep.Metrics
	fmt.Printf("simulated time          %v\n", m.SimTime)
	fmt.Printf("commits / aborts        %d / %d (deadlocks %d)\n", m.Commits, m.Aborts, m.Deadlocks)
	if m.CCEngine != "" && m.CCEngine != "2pl" {
		fmt.Printf("cc engine               %s  admitted %d  restarts %d  engine aborts %d  validations %d (failed %d)\n",
			m.CCEngine, m.Admitted, m.Restarts, m.CCAborts, m.CCValidations, m.CCValidationFails)
	}
	fmt.Printf("throughput              %.1f TPS\n", m.Throughput)
	fmt.Printf("response time           mean %v  p95 %v  max %v\n", m.MeanResponseTime, m.P95ResponseTime, m.MaxResponseTime)
	fmt.Printf("normalized RT           %v (mean refs/txn %.1f)\n", m.NormalizedResponseTime, m.MeanRefsPerTxn)
	fmt.Printf("input queue wait        %v\n", m.MeanInputQueueWait)
	fmt.Printf("CPU utilization         mean %.1f%%  max %.1f%%  (%.2f ms CPU per txn)\n",
		m.MeanCPUUtilization*100, m.MaxCPUUtilization*100, m.CPUSecondsPerTxn*1000)
	fmt.Printf("throughput @80%% CPU     %.1f TPS per node\n", rep.ThroughputPerNodeAt(0.8))
	fmt.Printf("GEM                     util %.2f%%  entries %d  pages %d  wait %v\n",
		m.GEMUtilization*100, m.GEMEntryAcc, m.GEMPageAcc, m.GEMMeanWait)
	fmt.Printf("messages                short %d  long %d  (%.2f per txn)\n", m.ShortMessages, m.LongMessages, m.MessagesPerTxn)
	fmt.Printf("locks                   requests %d  local share %.1f%%  waits %d  mean wait %v\n",
		m.LockRequests, m.LocalLockShare*100, m.LockWaits, m.MeanLockWait)
	fmt.Printf("coherency               invalidations/txn %.3f  page requests/txn %.3f (delay %v)\n",
		m.InvalidationsPerTxn, m.PageRequestsPerTxn, m.MeanPageReqDelay)
	fmt.Printf("storage                 reads %d  writes %d  force writes %d  log writes %d\n",
		m.StorageReads, m.StorageWrites, m.ForceWrites, m.LogWrites)
	fmt.Printf("kernel                  %d events dispatched (%.0f events/sec wall clock)\n",
		rep.KernelEvents, rep.KernelEventsPerSec)
	if m.TxnsKilled > 0 || m.TxnsRetried > 0 || m.LockTimeouts > 0 ||
		m.MessagesDropped > 0 || len(m.Failovers) > 0 {
		fmt.Printf("faults                  killed %d  retried %d  lock timeouts %d  messages dropped %d\n",
			m.TxnsKilled, m.TxnsRetried, m.LockTimeouts, m.MessagesDropped)
		for i := range m.Failovers {
			f := &m.Failovers[i]
			fmt.Printf("failover                node %d  crash %v  detect %v  recovered %v  (outage %v)\n",
				f.Node, f.CrashAt, f.DetectAt, f.RecoveredAt, f.RecoveryDuration)
			fmt.Printf("  recovery phases       locks %v (%d)  log scan %v (%d pages)  redo %v (%d pages)\n",
				f.LockRecovery, f.LocksRecovered, f.LogScan, f.LogPagesScanned, f.Redo, f.PagesRedone)
			if f.Workers > 1 || f.PagesRepairedOnDemand > 0 {
				fmt.Printf("  reopen                at %v  workers %d  on-demand repairs %d\n",
					f.ReopenAt, f.Workers, f.PagesRepairedOnDemand)
			}
			if f.TimeToFullThroughput > 0 {
				fmt.Printf("  time to full tput     %v (baseline %.1f TPS)\n",
					f.TimeToFullThroughput, f.BaselineTput)
			}
		}
		if len(m.Failovers) > 0 {
			fmt.Printf("  response time         pre %v  during recovery %v  post %v\n",
				m.MeanRTPreFailure, m.MeanRTDuringRecovery, m.MeanRTPostRecovery)
		}
		if m.AvailabilityWindows > 0 {
			fmt.Printf("availability            p99 unavailability %.3f  SLO attainment %.1f%%  (%d windows)\n",
				m.P99Unavailability, 100*m.SLOAttainment, m.AvailabilityWindows)
		}
	}
	names := make([]string, 0, len(m.BufferHitRatio))
	for name := range m.BufferHitRatio {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("buffer hit ratio        %-14s %.1f%%\n", name, m.BufferHitRatio[name]*100)
	}
	names = names[:0]
	for name := range m.DiskUtilization {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("disk utilization        %-14s %.1f%%", name, m.DiskUtilization[name]*100)
		if hr, ok := m.CacheHitRatio[name]; ok {
			line += fmt.Sprintf("  (cache hit %.1f%%)", hr*100)
		}
		fmt.Println(line)
	}
}
