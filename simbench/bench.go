package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/core"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object on the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passStat is the host cost of one pass over the workload's runs.
type passStat struct {
	wall    time.Duration      // host time of the whole pass, reference kernel runs included
	runs    map[string]float64 // run key -> that run's scaled host ns
	refs    []time.Duration    // reference kernel times next to each run
	commits int64
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

// session checks the passes of one invocation and counts their runs.
type session struct {
	plan      *plan
	attempted int
	failed    int
	first     []result          // the first pass's runs
	digests   map[string]string // run key -> digest of its first-pass metrics
}

// runBench measures one workload and prints its metrics, ending with
// the summary line.
func runBench(w *workloadSpec, seed int64, budget time.Duration, traced bool) error {
	// The simulation is sequential: one goroutine runs at a time and
	// hands control to the next over a channel. With a second P each
	// handoff may wake an idle core and move between cores; on a 2-vCPU
	// Xeon host that made ns_per_txn 1.4-1.7x higher and its spread
	// across runs up to 2.5x wider. One P measures the simulator's own
	// work.
	runtime.GOMAXPROCS(1)
	p, setup, err := timeSetup(w, seed)
	if err != nil {
		return err
	}
	printEnv(w, p, seed, budget, traced)
	s := &session{plan: p}
	var metrics map[string]metric
	if traced {
		metrics, err = s.perLayer(budget)
	} else {
		metrics, err = s.endToEnd(budget, setup)
	}
	if err != nil {
		return err
	}
	printMetrics(metrics)
	// failed_frac is 0 whenever the run is correct, so it is printed here
	// and carried by the summary's failed and attempted counts rather than
	// reported as a metric.
	fmt.Printf("%-30s %14.6g ratio (%d of %d simulated runs failed)\n",
		"failed_frac", float64(s.failed)/float64(s.attempted), s.failed, s.attempted)
	line, err := json.Marshal(summary{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timeSetup prepares the workload's inputs several times and returns
// the last plan with the median scaled time of one preparation. A
// first, untimed preparation faults in the code and data pages no later
// one pays for. Preparations run back to back in batches of at least
// minSetupBatch, each batch after a collection, untimed, with no plan
// alive, and timed between two runs of the reference kernel
// (reference.go), each also after a collection, so that none shares the
// P with collecting the batch's garbage. An expensive preparation is a
// batch of its own, so that at most one plan's inputs are alive at a
// time, as in a single real run; a cheap one, such as building a few
// configurations, repeats until the batch is long enough to time, and
// its garbage is collected as it accrues, as in a real run.
func timeSetup(w *workloadSpec, seed int64) (*plan, float64, error) {
	const (
		setupBatches  = 7
		minSetupBatch = 100 * time.Millisecond
	)
	p, err := w.setup(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	var times []float64
	runtime.GC()
	prev := refKernel()
	for i := 0; i < setupBatches; i++ {
		p = nil
		runtime.GC()
		n := 0
		start := time.Now()
		for ; n == 0 || time.Since(start) < minSetupBatch; n++ {
			if p, err = w.setup(seed); err != nil {
				return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
			}
		}
		timed := time.Since(start)
		runtime.GC()
		ref := refKernel()
		times = append(times, scaled(timed, (prev+ref)/2)/float64(n)/1e9)
		prev = ref
	}
	return p, median(times), nil
}

// endToEnd runs untraced passes for the whole budget and returns the
// end-to-end metrics. Host times are scaled to the reference kernel and
// sum each simulated run's median over passes (scaledWall). Allocation
// counts are per-pass medians.
func (s *session) endToEnd(budget time.Duration, setup float64) (map[string]metric, error) {
	stats, _, err := s.passes(budget, false)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	wall := scaledWall(stats)
	perTxn := func(f func(passStat) float64) float64 {
		return medianOf(stats, func(p passStat) float64 { return ratio(f(p), p.commits) })
	}
	return map[string]metric{
		"wall_s":         {wall.Seconds(), "s"},
		"ns_per_txn":     {ratio(float64(wall.Nanoseconds()), stats[0].commits), "ns"},
		"allocs_per_txn": {perTxn(func(p passStat) float64 { return float64(p.mallocs) }), "count"},
		"bytes_per_txn":  {perTxn(func(p passStat) float64 { return float64(p.bytes) }), "B"},
		"peak_rss_mb":    {rss, "MB"},
		"setup_s":        {setup, "s"},
	}, nil
}

// perLayer gives half the budget to untraced passes and half to passes
// under the CPU profiler, and returns the per-layer metrics: each
// layer's share of the profiled CPU time times the untraced passes'
// ns_per_txn, so that the layers sum to the end-to-end figure and are
// scaled to the reference kernel like it; the profiler's overhead; and
// the simulated work counts of the first pass.
func (s *session) perLayer(budget time.Duration) (map[string]metric, error) {
	plain, _, err := s.passes(budget/2, false)
	if err != nil {
		return nil, err
	}
	profiled, samples, err := s.passes(budget/2, true)
	if err != nil {
		return nil, err
	}
	byLayer, total := attribute(samples)
	share, sum := shares(byLayer, total)
	if total == 0 || math.Abs(sum-1) > 1e-9 {
		s.fail("profile", fmt.Errorf("layer shares of %d sampled ns sum to %v, want 1", total, sum))
	}
	perTxn := ratio(float64(scaledWall(plain).Nanoseconds()), plain[0].commits)
	m := workCounts(s.first)
	fmt.Printf("%-14s %12s %7s\n", "layer", "CPU ns/txn", "share")
	for _, l := range layers {
		v := share[l] * perTxn
		m[l+".ns_per_txn"] = metric{v, "ns"}
		fmt.Printf("%-14s %12.1f %6.1f%%\n", l, v, 100*share[l])
	}
	fmt.Printf("%-14s %12.1f %6.1f%% of %d sampled ms\n", "total", sum*perTxn, 100*sum, total/1e6)
	overhead := scaledWall(profiled).Seconds()/scaledWall(plain).Seconds() - 1
	m["profile.overhead_frac"] = metric{overhead, "ratio"}
	m["runtime.gc_cycles_per_ktxn"] = metric{medianOf(plain, func(p passStat) float64 {
		return 1000 * ratio(float64(p.gcs), p.commits)
	}), "count"}
	return m, nil
}

// passes repeats passes while the next one is expected to end within
// the budget, running at least one. With profiled set, every pass runs
// under the CPU profiler and the samples of all of them are returned.
func (s *session) passes(budget time.Duration, profiled bool) ([]passStat, []stackSample, error) {
	var (
		stats   []passStat
		samples []stackSample
		walls   []float64
		refs    []float64
	)
	start := time.Now()
	for len(stats) == 0 || time.Since(start)*time.Duration(len(stats)+1)/time.Duration(len(stats)) <= budget {
		st, prof, err := s.pass(profiled)
		if err != nil {
			return nil, nil, err
		}
		if profiled {
			ss, err := parseProfile(prof)
			if err != nil {
				return nil, nil, err
			}
			samples = append(samples, ss...)
		}
		stats = append(stats, st)
		walls = append(walls, st.wall.Seconds())
		for _, r := range st.refs {
			refs = append(refs, r.Seconds())
		}
	}
	kind := "untraced"
	if profiled {
		kind = "profiled"
	}
	lo, hi := minMax(walls)
	rlo, rhi := minMax(refs)
	fmt.Printf("%d %s passes: wall median %.4fs, min %.4fs, max %.4fs; reference kernel median %.2fms, min %.2fms, max %.2fms; scaled wall %.4fs; %d commits per pass\n",
		len(stats), kind, median(walls), lo, hi, 1000*median(refs), 1000*rlo, 1000*rhi, scaledWall(stats).Seconds(), stats[0].commits)
	return stats, samples, nil
}

// pass runs every simulated run of the plan once, measuring host time
// and heap allocation, and checks the results. With profiled set it
// also returns the pass's CPU profile. The profiler keeps its default
// 100 Hz: at 500 Hz, on a 2-vCPU Xeon host, its samples added up to
// half the CPU time of the runs, at 100 Hz to nine tenths.
func (s *session) pass(profiled bool) (passStat, []byte, error) {
	var (
		before, after runtime.MemStats
		prof          bytes.Buffer
	)
	runtime.GC()
	runtime.ReadMemStats(&before)
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return passStat{}, nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	start := time.Now()
	results := s.plan.pass()
	st := passStat{wall: time.Since(start)}
	if profiled {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	st.mallocs = after.Mallocs - before.Mallocs
	st.bytes = after.TotalAlloc - before.TotalAlloc
	st.gcs = after.NumGC - before.NumGC
	st.runs = make(map[string]float64, len(results))
	for _, r := range results {
		if r.ref > 0 {
			st.runs[r.key] = scaled(r.wall, r.ref)
			st.refs = append(st.refs, r.ref)
		}
	}
	st.commits = s.check(results)
	return st, prof.Bytes(), nil
}

// check applies the output checks to one pass's runs, counts attempted
// and failed runs, and returns the committed transactions. The first
// pass prints and records every run's digest and runs the workload's
// paper-shape assertion; later passes must reproduce the digests.
func (s *session) check(results []result) int64 {
	first := s.digests == nil
	if first {
		s.first = results
		s.digests = make(map[string]string, len(results))
	}
	var commits int64
	for _, r := range results {
		s.attempted++
		err := r.err
		if err == nil {
			commits += r.rep.Metrics.Commits
			err = checkRun(r.rep)
		}
		if err == nil {
			d := digest(r.rep)
			if first {
				s.digests[r.key] = d
				fmt.Printf("digest %s %s\n", r.key, d)
			} else if d != s.digests[r.key] {
				err = fmt.Errorf("metrics digest %s differs from the first pass's %s", d, s.digests[r.key])
			}
		}
		if err != nil {
			s.fail(r.key, err)
		}
	}
	// A failed paper-shape assertion counts as one failed run. It is
	// only meaningful when every run it compares succeeded.
	if first && s.failed == 0 {
		reps := make(map[string]*core.Report, len(results))
		for _, r := range results {
			reps[r.key] = r.rep
		}
		if err := s.plan.shape(reps); err != nil {
			s.fail("paper shape", err)
		}
	}
	return commits
}

// fail counts one failed run and says why.
func (s *session) fail(what string, err error) {
	s.failed++
	fmt.Printf("FAIL %s: %v\n", what, err)
}

// inFlightPerNode bounds, per node, the attempts admitted before the
// warm-up statistics reset that commit or abort after it; those count
// in Commits+Aborts but not in Admitted. It is the largest
// multiprogramming level any workload here runs with (trace replay).
const inFlightPerNode = 256

// checkRun applies the output checks every simulated run must pass.
// core.Run has already turned a stalled simulation into an error.
func checkRun(rep *core.Report) error {
	m, cfg := &rep.Metrics, &rep.Config
	if m.Commits <= 0 {
		return errors.New("no committed transactions")
	}
	if cfg.Faults == nil {
		if m.Restarts != m.Aborts {
			return fmt.Errorf("%d restarts but %d aborts with faults off", m.Restarts, m.Aborts)
		}
		if slack := int64(cfg.Nodes) * inFlightPerNode; m.Admitted+slack < m.Commits+m.Aborts {
			return fmt.Errorf("%d admitted attempts (+%d in flight) are fewer than %d commits + %d aborts",
				m.Admitted, slack, m.Commits, m.Aborts)
		}
	}
	b := m.Attribution
	if b == nil {
		return errors.New("no response-time attribution")
	}
	var sum float64
	for r := attrib.Res(0); r < attrib.NumRes; r++ {
		sum += b.Share(r)
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("attribution shares sum to %.12f, want 1", sum)
	}
	return nil
}

// digest hashes every simulated metric of a run, so that a change meant
// only to make the simulator faster can show its results unchanged.
// Report.KernelEvents stays out: fewer events for the same simulated
// work is exactly such a change.
func digest(rep *core.Report) string {
	m := rep.Metrics
	attribution, phases := m.Attribution, m.Phases
	m.Attribution, m.Phases = nil, nil // pointers would print as addresses
	h := sha256.New()
	fmt.Fprintf(h, "%+v", m)
	if attribution != nil {
		fmt.Fprintf(h, "%+v", *attribution)
	}
	if phases != nil {
		fmt.Fprintf(h, "%+v", *phases)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// workCounts sums the simulated work of one pass's runs into the
// per-transaction counts and ratios of the per-layer ledger.
func workCounts(results []result) map[string]metric {
	var (
		commits, events, lockReqs, lockWaits, deadlocks int64
		admitted, restarts, validations, valFails       int64
		gemAcc, msgs, ios, invals                       int64
		util, hit                                       float64
		runs, files                                     int
	)
	for _, r := range results {
		if r.rep == nil {
			continue
		}
		m := &r.rep.Metrics
		commits += m.Commits
		events += r.rep.KernelEvents
		lockReqs += m.LockRequests
		lockWaits += m.LockWaits
		deadlocks += m.Deadlocks
		admitted += m.Admitted
		restarts += m.Restarts
		validations += m.CCValidations
		valFails += m.CCValidationFails
		gemAcc += m.GEMPageAcc + m.GEMEntryAcc
		msgs += m.ShortMessages + m.LongMessages
		ios += m.StorageReads + m.StorageWrites + m.LogWrites
		invals += m.Invalidations
		util += m.MeanCPUUtilization
		runs++
		for _, h := range m.BufferHitRatio {
			hit += h
			files++
		}
	}
	per := func(n int64) float64 { return ratio(float64(n), commits) }
	return map[string]metric{
		"sim.events_per_txn":           {per(events), "count"},
		"lock.requests_per_txn":        {per(lockReqs), "count"},
		"lock.waits_per_txn":           {per(lockWaits), "count"},
		"lock.deadlocks_per_ktxn":      {1000 * per(deadlocks), "count"},
		"cc.restart_ratio":             {ratio(float64(restarts), admitted), "ratio"},
		"cc.val_fail_ratio":            {ratio(float64(valFails), validations), "ratio"},
		"gem.accesses_per_txn":         {per(gemAcc), "count"},
		"netsim.msgs_per_txn":          {per(msgs), "count"},
		"storage.ios_per_txn":          {per(ios), "count"},
		"buffer.hit_ratio":             {ratio(hit, int64(files)), "ratio"},
		"buffer.invalidations_per_txn": {per(invals), "count"},
		"cpusrv.util":                  {ratio(util, int64(runs)), "ratio"},
	}
}

// printEnv records the environment and the simulated inputs.
func printEnv(w *workloadSpec, p *plan, seed int64, budget time.Duration, traced bool) {
	fmt.Printf("simbench %s: seed %d (default %d, held-out %d), measuring %v, trace %v\n",
		w.name, seed, defaultSeed, heldOutSeed, budget, traced)
	fmt.Printf("env: %s %s/%s, GOMAXPROCS %d, nproc %d, cpu %q\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Printf("load: %s\n", w.load)
	fmt.Printf("simulated: %s\n", p.desc)
	fmt.Println("host times are this machine's; simulated results are checked against the paper's shape, not against measured hardware")
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-30s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// cpuModel names the host CPU, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// scaledWall sums, over the workload's simulated runs, each run's
// median scaled host time across passes (reference.go says why times
// are scaled).
func scaledWall(stats []passStat) time.Duration {
	byRun := make(map[string][]float64)
	for _, p := range stats {
		for k, ns := range p.runs {
			byRun[k] = append(byRun[k], ns)
		}
	}
	var total float64
	for _, ns := range byRun {
		total += median(ns)
	}
	return time.Duration(total)
}

func medianOf(stats []passStat, f func(passStat) float64) float64 {
	v := make([]float64, len(stats))
	for i, p := range stats {
		v[i] = f(p)
	}
	return median(v)
}

// ratio is x/n, or 0 when n is 0.
func ratio(x float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}
