// Command gemsim runs a single database sharing configuration and
// prints its measurements.
//
// Examples:
//
//	gemsim -nodes 4 -coupling gem -routing affinity -buffer 200
//	gemsim -nodes 8 -coupling pcl -force -routing random -measure 20s
//	gemsim -nodes 4 -bt-medium gem          # BRANCH/TELLER in GEM
//	gemsim -nodes 4 -trace workload.trc     # trace-driven run
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/core"
	"gemsim/internal/model"
	"gemsim/internal/node"
	"gemsim/internal/recovery"
	"gemsim/internal/report"
	"gemsim/internal/trace"
	"gemsim/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gemsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gemsim", flag.ContinueOnError)
	var (
		cfgPath  = fs.String("config", "", "JSON configuration file (other flags are ignored)")
		nodes    = fs.Int("nodes", 1, "number of processing nodes")
		rate     = fs.Float64("rate", 0, "arrival rate per node in TPS (default 100, 50 for traces)")
		coupling = fs.String("coupling", "gem", "coupling mode: gem (close), pcl (loose) or le (lock engine)")
		force    = fs.Bool("force", false, "use the FORCE update strategy (default NOFORCE)")
		routing  = fs.String("routing", "affinity", "workload allocation: random, affinity or loadaware")
		ccEng    = fs.String("cc", "", "concurrency-control engine: 2pl (default), mvto, occ or had")
		buffer   = fs.Int("buffer", 0, "database buffer pages per node (default 200, 1000 for traces)")
		mpl      = fs.Int("mpl", 0, "multiprogramming level per node (default 64, 256 for traces)")
		btMedium = fs.String("bt-medium", "", "BRANCH/TELLER medium: disk, vcache, nvcache, gem, gemwb or gemcache")
		logGEM   = fs.Bool("log-gem", false, "allocate log files to GEM")
		logMerge = fs.Bool("log-merge", false, "run the global log merge process (needs -log-gem)")
		gemMsg   = fs.Bool("gem-messaging", false, "exchange all messages across GEM")
		skewT    = fs.Float64("skew", 0, "branch Zipf skew theta in [0,1) (debit-credit only; 0 = uniform)")
		acctSkew = fs.Float64("account-skew", 0, "account Zipf skew theta in [0,1) within the chosen branch")
		adaptive = fs.Bool("adaptive", false, "enable the closed-loop load controller (feedback admission and re-routing)")
		term     = fs.Int("terminals", 0, "closed-loop mode: terminals per node (0 = open model)")
		think    = fs.Duration("think", time.Second, "closed-loop mean think time")
		pooled   = fs.Bool("pooled-terminals", false, "hyperscale closed-loop source: idle terminals are calendar events, not goroutines (needs -terminals)")
		mtbf     = fs.Duration("mtbf", 0, "mean time between node crashes (stochastic fault injection; set with -mttr)")
		mttr     = fs.Duration("mttr", 0, "mean time to repair a crashed node (set with -mtbf)")
		reopenP  = fs.String("reopen", "", "post-crash reopen policy: offline (REDO completes first) or incremental (admit during replay)")
		recWrk   = fs.Int("recovery-workers", 0, "parallel REDO replay workers (0 or 1 = serial)")
		tracePth = fs.String("trace", "", "trace file for trace-driven simulation")
		warmup   = fs.Duration("warmup", 4*time.Second, "warm-up period of simulated time")
		measure  = fs.Duration("measure", 16*time.Second, "measurement period of simulated time")
		seed     = fs.Int64("seed", 1, "random seed")
		check    = fs.Bool("check", false, "enable the coherency invariant oracle")
		traceOut = fs.String("trace-out", "", "write an event trace to this file (see -trace-format)")
		traceFmt = fs.String("trace-format", "jsonl", "event trace encoding: jsonl or perfetto")
		tsOut    = fs.String("timeseries", "", "write windowed time-series samples (JSONL) to this file")
		sampleIv = fs.Duration("sample-interval", 500*time.Millisecond, "time-series window length")
		phases   = fs.Bool("phases", false, "collect and print the per-phase response time breakdown")
		attrOff  = fs.Bool("attrib-off", false, "disable bottleneck attribution accounting")
		attrTol  = fs.Float64("attrib-tolerance", 0, "operational-law residual warning threshold (0 = default 5%)")
		attrTbl  = fs.Bool("attrib", false, "print the per-resource bottleneck attribution tables")
		verbose  = fs.Bool("v", false, "print detailed metrics")
		quiet    = fs.Bool("quiet", false, "suppress the summary line (useful with -trace-out/-timeseries)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quiet && *verbose {
		return fmt.Errorf("-quiet and -v are mutually exclusive")
	}
	// Reject contradictory flag combinations up front, with errors that
	// name the fix, instead of letting them surface as confusing
	// behaviour deep in a run.
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["mpl"] && *mpl <= 0 {
		return fmt.Errorf("-mpl must be positive, got %d (omit the flag for the workload default)", *mpl)
	}
	if *traceOut != "" && *traceOut == *tsOut {
		return fmt.Errorf("-trace-out and -timeseries both write to %q; give them distinct paths", *traceOut)
	}
	if (*skewT > 0 || *acctSkew > 0) && *tracePth != "" {
		return fmt.Errorf("-skew and -account-skew shape the debit-credit workload and cannot be combined with -trace")
	}
	if *attrTbl && *attrOff {
		return fmt.Errorf("-attrib and -attrib-off are mutually exclusive")
	}
	ccKind, err := cc.Parse(strings.ToLower(*ccEng))
	if err != nil {
		return err
	}
	if *attrTol < 0 {
		return fmt.Errorf("-attrib-tolerance must be non-negative, got %v", *attrTol)
	}

	if *cfgPath != "" {
		cfg, err := core.LoadConfigFile(*cfgPath)
		if err != nil {
			return err
		}
		applyAttribFlags(&cfg, *attrOff, *attrTol)
		return execute(cfg, *traceOut, *traceFmt, *tsOut, *sampleIv, *phases, *attrTbl, *quiet, *verbose)
	}

	cfg := core.DefaultDebitCreditConfig(*nodes)
	if *tracePth != "" {
		trace, err := workload.ReadTraceFile(*tracePth)
		if err != nil {
			return err
		}
		cfg = core.DefaultTraceConfig(*nodes, trace)
	}
	if *rate > 0 {
		cfg.ArrivalRatePerNode = *rate
	}
	if *buffer > 0 {
		cfg.BufferPages = *buffer
	}
	if *mpl > 0 {
		cfg.MPL = *mpl
	}
	switch strings.ToLower(*coupling) {
	case "gem":
		cfg.Coupling = core.CouplingGEM
	case "pcl":
		cfg.Coupling = core.CouplingPCL
	case "le", "lockengine":
		cfg.Coupling = core.CouplingLockEngine
	default:
		return fmt.Errorf("unknown coupling %q (want gem, pcl or le)", *coupling)
	}
	switch strings.ToLower(*routing) {
	case "random":
		cfg.Routing = core.RoutingRandom
	case "affinity":
		cfg.Routing = core.RoutingAffinity
	case "loadaware":
		cfg.Routing = core.RoutingLoadAware
	default:
		return fmt.Errorf("unknown routing %q (want random, affinity or loadaware)", *routing)
	}
	if *btMedium != "" {
		m, err := parseMedium(*btMedium)
		if err != nil {
			return err
		}
		cfg.FileMedium = map[string]model.Medium{"BRANCH/TELLER": m}
	}
	cfg.Force = *force
	cfg.CC = ccKind
	cfg.LogInGEM = *logGEM
	cfg.GlobalLogMerge = *logMerge
	cfg.GEMMessaging = *gemMsg
	if *term > 0 {
		cfg.ClosedLoop = &core.ClosedLoopConfig{TerminalsPerNode: *term, ThinkTime: *think, Pooled: *pooled}
	} else if *pooled {
		return fmt.Errorf("-pooled-terminals needs -terminals (the open model has no terminal population)")
	}
	if *skewT > 0 || *acctSkew > 0 {
		dc := workload.DefaultDebitCreditParams(cfg.ArrivalRatePerNode * float64(*nodes))
		dc.Skew = &workload.Skew{BranchTheta: *skewT, AccountTheta: *acctSkew}
		cfg.Workload.DebitCredit = &dc
	}
	if *adaptive {
		cfg.Control = node.DefaultControlConfig()
	}
	if *mtbf > 0 || *mttr > 0 || *reopenP != "" || *recWrk > 0 {
		pol, err := recovery.ParseReopenPolicy(*reopenP)
		if err != nil {
			return err
		}
		if *recWrk < 0 {
			return fmt.Errorf("-recovery-workers must be non-negative, got %d", *recWrk)
		}
		cfg.Faults = &core.FaultConfig{
			MTBF:            *mtbf,
			MTTR:            *mttr,
			Reopen:          pol,
			RecoveryWorkers: *recWrk,
		}
	}
	cfg.Warmup = *warmup
	cfg.Measure = *measure
	cfg.Seed = *seed
	cfg.CheckInvariants = *check
	applyAttribFlags(&cfg, *attrOff, *attrTol)

	return execute(cfg, *traceOut, *traceFmt, *tsOut, *sampleIv, *phases, *attrTbl, *quiet, *verbose)
}

// applyAttribFlags folds the attribution flags into the configuration
// (on top of whatever a -config file specified).
func applyAttribFlags(cfg *core.Config, off bool, tol float64) {
	if off {
		cfg.Attribution.Off = true
	}
	if tol > 0 {
		cfg.Attribution.Tolerance = tol
	}
}

// execute attaches the requested tracing outputs, runs the
// configuration and prints the results.
func execute(cfg core.Config, traceOut, traceFmt, tsOut string, sampleIv time.Duration, phases, attrTbl, quiet, verbose bool) error {
	if traceOut != "" || tsOut != "" || phases {
		tc := &core.TraceConfig{SampleInterval: sampleIv}
		if traceOut != "" {
			format, ok := trace.ParseFormat(traceFmt)
			if !ok {
				return fmt.Errorf("unknown trace format %q (want jsonl or perfetto)", traceFmt)
			}
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			tc.Events = f
			tc.Format = format
		}
		if tsOut != "" {
			f, err := os.Create(tsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			tc.TimeSeries = f
		}
		cfg.Tracing = tc
	}

	rep, err := core.Run(cfg)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Println(rep)
	}
	if verbose {
		printDetails(rep)
	}
	if m := &rep.Metrics; m.Phases != nil && m.Phases.N > 0 && (verbose || phases) {
		fmt.Print(report.PhaseTable(m.Phases).Render())
	}
	if m := &rep.Metrics; m.Attribution != nil && m.Attribution.N > 0 && (verbose || attrTbl) {
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

func parseMedium(s string) (model.Medium, error) {
	switch strings.ToLower(s) {
	case "disk":
		return model.MediumDisk, nil
	case "vcache":
		return model.MediumDiskCacheVolatile, nil
	case "nvcache":
		return model.MediumDiskCacheNV, nil
	case "gem":
		return model.MediumGEM, nil
	case "gemwb":
		return model.MediumGEMWriteBuffer, nil
	case "gemcache":
		return model.MediumGEMCache, nil
	default:
		return 0, fmt.Errorf("unknown medium %q (want disk, vcache, nvcache, gem, gemwb or gemcache)", s)
	}
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
