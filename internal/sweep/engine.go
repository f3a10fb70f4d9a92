package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gemsim/internal/core"
)

// Engine parameterizes the parallel execution of a run list.
type Engine struct {
	// Jobs is the worker pool size; zero or negative means
	// runtime.NumCPU(). Simulation results never depend on it.
	Jobs int
	// Timeout, when positive, bounds each attempt's wall clock; a run
	// exceeding it is recorded as failed (the stuck attempt is
	// abandoned, not killed — the simulator has no preemption points).
	Timeout time.Duration
	// Retries is the number of re-attempts after a failed attempt
	// (default 0: fail fast; the simulator is deterministic, so only
	// environmental failures are worth retrying).
	Retries int
	// Store, when non-nil, persists every result as one JSONL line.
	Store *Store
	// Resume skips runs whose fingerprint already has a successful
	// result in Store (failed runs are re-attempted).
	Resume bool
	// Stop, when non-nil, aborts the sweep gracefully once closed:
	// in-flight runs finish and are stored, queued runs stay pending.
	Stop <-chan struct{}
	// Progress, when non-nil, is called after every executed run (not
	// for resumed ones). Calls are serialized; their order follows
	// completion, which is arbitrary under parallel execution.
	Progress func(run *Run, res Result, done, total int)

	// exec replaces core.Run in tests.
	exec func(core.Config) (*core.Report, error)
}

// Result is the outcome of one run. It is the JSONL store's line
// format; the in-memory Report of executed runs is not persisted.
type Result struct {
	Key         string             `json:"key"`
	Group       string             `json:"group,omitempty"`
	Fingerprint string             `json:"fp"`
	Seed        int64              `json:"seed"`
	Replica     int                `json:"replica"`
	Attempts    int                `json:"attempts"`
	WallMS      float64            `json:"wallMs"`
	Values      map[string]float64 `json:"values,omitempty"`
	Err         string             `json:"error,omitempty"`

	// Report is the full in-memory report of an executed run; nil for
	// resumed or failed runs.
	Report *core.Report `json:"-"`
	// Resumed marks results loaded from the store instead of executed.
	Resumed bool `json:"-"`
}

// Failure pairs a failed run's key with its error.
type Failure struct {
	Key string
	Err string
}

// Summary counts what happened to a sweep's runs.
type Summary struct {
	// Total is the size of the run list.
	Total int
	// Executed counts runs actually simulated this invocation.
	Executed int
	// Resumed counts runs satisfied from the result store.
	Resumed int
	// Failed counts runs whose final attempt errored.
	Failed int
	// Pending counts runs never started (only after an interrupt).
	Pending int
	// Interrupted reports whether Stop fired before the sweep drained.
	Interrupted bool
	// Failures lists the failed runs in key order.
	Failures []Failure
	// Wall is the sweep's wall-clock duration.
	Wall time.Duration
}

// String renders a one-line summary.
func (s *Summary) String() string {
	out := fmt.Sprintf("%d runs: %d executed, %d resumed, %d failed in %s",
		s.Total, s.Executed, s.Resumed, s.Failed, fmtDuration(s.Wall))
	if s.Interrupted {
		out += fmt.Sprintf(" (interrupted, %d pending)", s.Pending)
	}
	return out
}

// Execute runs the list through the worker pool and returns every
// outcome keyed by run key. The returned map contains one entry per
// started run; after an interrupt, pending runs are absent. The error
// reports engine-level problems (duplicate keys, store I/O) — per-run
// simulation failures land in Summary.Failures instead.
func Execute(runs []Run, eng Engine) (map[string]Result, Summary, error) {
	start := time.Now()
	sum := Summary{Total: len(runs)}
	if err := checkKeys(runs); err != nil {
		return nil, sum, err
	}
	if eng.exec == nil {
		eng.exec = core.Run
	}

	results := make(map[string]Result, len(runs))
	var pending []int
	var prior map[string]Result
	if eng.Resume && eng.Store != nil {
		var err error
		prior, err = eng.Store.Load()
		if err != nil {
			return nil, sum, fmt.Errorf("sweep: resume: %w", err)
		}
	}
	for i := range runs {
		fp := runs[i].Fingerprint()
		if p, ok := prior[fp]; ok && p.Err == "" {
			p.Resumed = true
			p.Key = runs[i].Key // trust the live key over the stored one
			results[runs[i].Key] = p
			sum.Resumed++
			continue
		}
		pending = append(pending, i)
	}

	jobs := eng.Jobs
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	if jobs > len(pending) {
		jobs = len(pending)
	}
	if jobs < 1 && len(pending) > 0 {
		jobs = 1
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		storeErr error
		done     = sum.Resumed
	)
	idx := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := &runs[i]
				res := eng.runOne(r)
				mu.Lock()
				if eng.Store != nil {
					if err := eng.Store.Append(res); err != nil && storeErr == nil {
						storeErr = err
					}
				}
				results[r.Key] = res
				done++
				if eng.Progress != nil {
					eng.Progress(r, res, done, len(runs))
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for _, i := range pending {
		if eng.Stop != nil {
			select {
			case <-eng.Stop:
				sum.Interrupted = true
				break feed
			case idx <- i:
				continue feed
			}
		}
		idx <- i
	}
	close(idx)
	wg.Wait()

	for _, res := range results {
		if !res.Resumed {
			sum.Executed++
		}
	}
	sum.Pending = len(runs) - len(results)
	sum.Failures = sortedFailures(results)
	sum.Failed = len(sum.Failures)
	sum.Wall = time.Since(start)
	return results, sum, storeErr
}

// runOne executes one run with panic capture, the wall-clock timeout
// and bounded retry.
func (eng *Engine) runOne(r *Run) Result {
	res := Result{
		Key:         r.Key,
		Group:       r.Group,
		Fingerprint: r.Fingerprint(),
		Seed:        r.Config.Seed,
		Replica:     r.Replica,
	}
	start := time.Now()
	defer func() { res.WallMS = float64(time.Since(start).Microseconds()) / 1000 }()
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		rep, vals, err := eng.guarded(r)
		if err == nil {
			res.Report, res.Values, res.Err = rep, vals, ""
			return res
		}
		res.Err = err.Error()
		if attempt > eng.Retries {
			return res
		}
	}
}

// guarded runs one attempt under recover() and, when configured, a
// wall-clock watchdog. A timed-out attempt's goroutine is abandoned
// (it parks on an unread buffered channel and exits when the simulation
// eventually finishes).
func (eng *Engine) guarded(r *Run) (*core.Report, map[string]float64, error) {
	if eng.Timeout <= 0 {
		return runProtected(eng.exec, r)
	}
	type outcome struct {
		rep  *core.Report
		vals map[string]float64
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		rep, vals, err := runProtected(eng.exec, r)
		ch <- outcome{rep, vals, err}
	}()
	timer := time.NewTimer(eng.Timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.rep, o.vals, o.err
	case <-timer.C:
		return nil, nil, fmt.Errorf("sweep: run exceeded the %v wall-clock timeout (attempt abandoned)", eng.Timeout)
	}
}

// runProtected executes one attempt and extracts the values to store:
// the standard metric set plus the run's cells. A panicking simulation
// or extractor becomes an error carrying the stack, so one broken
// configuration cannot take the sweep down. A cell extractor's error
// (a failed sanity check on the result) fails the attempt like a
// simulation error.
func runProtected(exec func(core.Config) (*core.Report, error), r *Run) (rep *core.Report, vals map[string]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, vals, err = nil, nil, fmt.Errorf("sweep: run panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if rep, err = exec(r.Config); err != nil {
		return nil, nil, err
	}
	vals = Extract(rep)
	if r.Cells == nil {
		return rep, vals, nil
	}
	cells, err := r.Cells(rep)
	if err != nil {
		return nil, nil, err
	}
	for j, v := range cells {
		vals[cellKey(j)] = v
	}
	return rep, vals, nil
}
