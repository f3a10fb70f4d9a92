// Command traceview summarizes event traces produced by the
// simulator's -trace-out flag: per-category service time totals, the
// hottest lock pages, the slowest transactions, and a validation mode
// for CI that checks the emitted events against the Chrome trace_event
// schema. Both encodings are accepted — JSONL (one event per line) and
// the Perfetto JSON document — and are detected automatically.
//
// The -report mode turns a trace with attribution instants (cat
// "attrib", emitted by default) into a bottleneck report: resources
// ranked by attributed response-time share, a windowed dominant-
// bottleneck timeline, the station operational-law samples, and the
// lock wait-for snapshots. The -folded mode prints the aggregate
// critical path as folded stacks ("txn;res;wait <µs>") compatible
// with standard flamegraph tooling; its output is deterministic, so
// traces of the same seeded run diff byte-identically.
//
// Examples:
//
//	traceview run.jsonl
//	traceview -top 5 run.json
//	traceview -validate run.json     # exit 1 on schema violations
//	traceview -report run.jsonl      # bottleneck attribution report
//	traceview -folded run.jsonl > stacks.folded
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	var (
		top      = fs.Int("top", 10, "number of entries in the hotspot and slowest-transaction lists")
		validate = fs.Bool("validate", false, "validate the trace against the trace_event schema and exit")
		report   = fs.Bool("report", false, "render a bottleneck attribution report from the trace's attrib instants")
		folded   = fs.Bool("folded", false, "print the aggregate critical path as folded stacks (flamegraph format)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: traceview [-top N] [-validate | -report | -folded] <trace file, or - for stdin>")
	}

	var r io.Reader = os.Stdin
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	tr, err := parse(r)
	if err != nil {
		return err
	}
	if *validate {
		if errs := tr.validate(); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "traceview: invalid:", e)
			}
			return fmt.Errorf("%d schema violation(s) in %d events (%s)", len(errs), len(tr.events), tr.format)
		}
		fmt.Printf("OK: %d events (%s) conform to the trace_event schema\n", len(tr.events), tr.format)
		return nil
	}
	if *folded {
		return tr.folded(os.Stdout)
	}
	if *report {
		return tr.report(os.Stdout, *top)
	}
	tr.summarize(os.Stdout, *top)
	return nil
}

// event is the union of the fields of both encodings. Pointer fields
// distinguish absent from zero for validation.
type event struct {
	Ph    string         `json:"ph"`
	TS    *float64       `json:"ts"`
	Dur   *float64       `json:"dur"`
	Track string         `json:"track"` // JSONL only
	PID   *int           `json:"pid"`   // Perfetto only
	TID   *int64         `json:"tid"`
	Cat   string         `json:"cat"`
	Name  string         `json:"name"`
	Arg   string         `json:"arg"`   // JSONL only
	Value *float64       `json:"value"` // JSONL counters
	Args  map[string]any `json:"args"`  // Perfetto counters/details
	S     string         `json:"s"`     // Perfetto instant scope

	line int // 1-based source line (JSONL only); 0 for Perfetto
}

type traceData struct {
	format string // "jsonl" or "perfetto"
	events []event
	procs  map[int]string // Perfetto pid -> track name
}

// parse reads a trace in either encoding. A document whose top-level
// object carries a traceEvents array is treated as Perfetto; anything
// else is parsed line by line as JSONL.
func parse(r io.Reader) (*traceData, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err == nil && doc.TraceEvents != nil {
		t := &traceData{format: "perfetto", events: doc.TraceEvents, procs: map[int]string{}}
		for i := range t.events {
			e := &t.events[i]
			if e.Ph == "M" && e.Name == "process_name" && e.PID != nil {
				if name, ok := e.Args["name"].(string); ok {
					t.procs[*e.PID] = name
				}
			}
		}
		return t, nil
	}
	t := &traceData{format: "jsonl"}
	for i, s := range bytes.Split(data, []byte("\n")) {
		if s = bytes.TrimSpace(s); len(s) == 0 {
			continue
		}
		e := event{line: i + 1}
		if err := json.Unmarshal(s, &e); err != nil {
			return nil, fmt.Errorf("line %d: %w", e.line, err)
		}
		t.events = append(t.events, e)
	}
	return t, nil
}

// track resolves the event's track name in either encoding.
func (t *traceData) track(e *event) string {
	if t.format == "jsonl" {
		return e.Track
	}
	if e.PID != nil {
		if name, ok := t.procs[*e.PID]; ok {
			return name
		}
	}
	return "?"
}

// detail resolves the free-form argument in either encoding.
func (t *traceData) detail(e *event) string {
	if t.format == "jsonl" {
		return e.Arg
	}
	if d, ok := e.Args["detail"].(string); ok {
		return d
	}
	return ""
}

// validate checks every event against the trace_event schema: known
// phase letters, required timestamps, non-negative durations and the
// per-encoding identification fields; spans and instants are checked
// against the simulator's declared event schema (trace.Schema). It
// returns one message per violation (capped at 20), each prefixed
// with the source line for JSONL traces so violations are directly
// addressable.
func (t *traceData) validate() []string {
	var errs []string
	add := func(i int, format string, args ...any) {
		if len(errs) < 20 {
			errs = append(errs, t.loc(i)+": "+fmt.Sprintf(format, args...))
		}
	}
	for i := range t.events {
		e := &t.events[i]
		switch e.Ph {
		case "X", "i", "C", "M":
		default:
			add(i, "unknown phase %q", e.Ph)
			continue
		}
		if e.TS == nil {
			add(i, "%s event without ts", e.Ph)
		} else if *e.TS < 0 {
			add(i, "negative ts %v", *e.TS)
		}
		if e.Ph == "X" {
			if e.Dur == nil {
				add(i, "complete event without dur")
			} else if *e.Dur < 0 {
				add(i, "negative dur %v", *e.Dur)
			}
		}
		if e.Name == "" {
			add(i, "%s event without name", e.Ph)
		}
		if t.format == "perfetto" {
			if e.PID == nil || e.TID == nil {
				add(i, "%s event without pid/tid", e.Ph)
			}
			if e.Ph == "i" && e.S != "t" && e.S != "p" && e.S != "g" {
				add(i, "instant with invalid scope %q", e.S)
			}
			if e.Ph == "M" && e.Name == "process_name" {
				if _, ok := e.Args["name"].(string); !ok {
					add(i, "process_name metadata without args.name")
				}
			}
		} else if e.Track == "" {
			add(i, "%s event without track", e.Ph)
		}
		// Spans and instants must be rows of the simulator's trace
		// schema, with the row's phase and argument format.
		if (e.Ph == "X" || e.Ph == "i") && e.Name != "" {
			if err := trace.Check(e.Ph, e.Cat, e.Name, t.detail(e)); err != nil {
				add(i, "%v", err)
			}
		}
	}
	return errs
}

// loc names an event for error messages: the source line for JSONL
// traces, the event index for Perfetto documents.
func (t *traceData) loc(i int) string {
	if e := &t.events[i]; e.line > 0 {
		return fmt.Sprintf("line %d", e.line)
	}
	return fmt.Sprintf("event %d", i)
}

// keyTotal accumulates count and total duration per grouping key.
type keyTotal struct {
	key   string
	count int
	total float64 // microseconds
}

func topTotals(m map[string]*keyTotal, n int) []*keyTotal {
	out := make([]*keyTotal, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].total != out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].key < out[j].key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

func (t *traceData) summarize(w io.Writer, top int) {
	var (
		spans, instants, counters int
		tsMax                     float64
		byCat                     = map[string]*keyTotal{}
		lockPages                 = map[string]*keyTotal{}
		recPhases                 = map[string]*keyTotal{}
		txns                      []*event
	)
	acc := func(m map[string]*keyTotal, key string, dur float64) {
		kt := m[key]
		if kt == nil {
			kt = &keyTotal{key: key}
			m[key] = kt
		}
		kt.count++
		kt.total += dur
	}
	for i := range t.events {
		e := &t.events[i]
		if e.TS != nil {
			end := *e.TS
			if e.Dur != nil {
				end += *e.Dur
			}
			if end > tsMax {
				tsMax = end
			}
		}
		switch e.Ph {
		case "X":
			spans++
			dur := 0.0
			if e.Dur != nil {
				dur = *e.Dur
			}
			cat := e.Cat
			if cat == "" {
				cat = "?"
			}
			if cat == "txn" {
				txns = append(txns, e)
			} else {
				acc(byCat, cat+"/"+e.Name, dur)
			}
			if cat == "lock" {
				if page := t.detail(e); page != "" {
					acc(lockPages, e.Name+" "+page, dur)
				}
			}
			if cat == "recovery" {
				acc(recPhases, e.Name, dur)
			}
		case "i":
			instants++
			acc(byCat, "instant "+e.Cat+"/"+e.Name, 0)
		case "C":
			counters++
		}
	}

	fmt.Fprintf(w, "trace: %s, %d events (%d spans, %d instants, %d counter samples), %.3f s simulated\n",
		t.format, len(t.events), spans, instants, counters, tsMax/1e6)

	fmt.Fprintf(w, "\nservice totals by category:\n")
	for _, kt := range topTotals(byCat, 0) {
		fmt.Fprintf(w, "  %-28s %8d  %12.3f ms\n", kt.key, kt.count, kt.total/1e3)
	}

	if len(recPhases) > 0 {
		var recTotal float64
		for _, kt := range recPhases {
			recTotal += kt.total
		}
		fmt.Fprintf(w, "\nrestart decomposition (recovery phases):\n")
		for _, kt := range topTotals(recPhases, 0) {
			share := 0.0
			if recTotal > 0 {
				share = 100 * kt.total / recTotal
			}
			fmt.Fprintf(w, "  %-28s %8d  %12.3f ms  %5.1f%%\n", kt.key, kt.count, kt.total/1e3, share)
		}
	}

	if len(lockPages) > 0 {
		fmt.Fprintf(w, "\ntop lock hotspots (by time):\n")
		for _, kt := range topTotals(lockPages, top) {
			fmt.Fprintf(w, "  %-28s %8d  %12.3f ms\n", kt.key, kt.count, kt.total/1e3)
		}
	}

	if len(txns) > 0 {
		sort.Slice(txns, func(i, j int) bool {
			di, dj := 0.0, 0.0
			if txns[i].Dur != nil {
				di = *txns[i].Dur
			}
			if txns[j].Dur != nil {
				dj = *txns[j].Dur
			}
			if di != dj {
				return di > dj
			}
			return *txns[i].TS < *txns[j].TS
		})
		n := len(txns)
		var total float64
		for _, e := range txns {
			if e.Dur != nil {
				total += *e.Dur
			}
		}
		fmt.Fprintf(w, "\ntransactions: %d complete, mean %.3f ms\n", n, total/float64(n)/1e3)
		if top < n {
			n = top
		}
		fmt.Fprintf(w, "slowest transactions:\n")
		for _, e := range txns[:n] {
			tid := int64(0)
			if e.TID != nil {
				tid = *e.TID
			}
			fmt.Fprintf(w, "  txn %-8d %-10s start %10.3f ms  dur %10.3f ms  %s\n",
				tid, t.track(e), *e.TS/1e3, *e.Dur/1e3, t.detail(e))
		}
	}
}

// pathSample is one decoded txnpath instant: a committed transaction's
// critical-path vector, with the response time joined from the
// matching txn span (same track and tid).
type pathSample struct {
	ts  float64 // microseconds
	vec attrib.Vector
	rt  time.Duration
}

// collectAttrib extracts and joins the attribution events of a trace:
// txnpath vectors (joined against txn-span response times), station
// law samples, and wait-for snapshots. unmatched counts txnpath
// instants without a txn span — their vectors still contribute to
// folded stacks but carry no residual.
func (t *traceData) collectAttrib() (paths []pathSample, stations []attrib.Laws, waitfors []attrib.WaitForReport, unmatched int, err error) {
	rt := map[string]float64{} // track|tid -> txn span dur (µs)
	for i := range t.events {
		e := &t.events[i]
		if e.Ph == "X" && e.Cat == "txn" && e.Dur != nil && e.TID != nil {
			rt[fmt.Sprintf("%s|%d", t.track(e), *e.TID)] = *e.Dur
		}
	}
	for i := range t.events {
		e := &t.events[i]
		if e.Ph != "i" || e.Cat != "attrib" {
			continue
		}
		var derr error
		switch e.Name {
		case "txnpath":
			var p pathSample
			p.vec, derr = attrib.DecodeArg(t.detail(e))
			if e.TS != nil {
				p.ts = *e.TS
			}
			if e.TID != nil {
				if dur, ok := rt[fmt.Sprintf("%s|%d", t.track(e), *e.TID)]; ok {
					p.rt = time.Duration(dur * float64(time.Microsecond))
				}
			}
			if p.rt == 0 {
				unmatched++
				p.rt = p.vec.Sum()
			}
			paths = append(paths, p)
		case "station":
			var l attrib.Laws
			l, derr = attrib.DecodeLaws(t.detail(e))
			stations = append(stations, l)
		case "waitfor":
			var rep attrib.WaitForReport
			rep, derr = attrib.DecodeWaitFor(t.detail(e))
			waitfors = append(waitfors, rep)
		}
		if derr != nil {
			return nil, nil, nil, 0, fmt.Errorf("%s: %v", t.loc(i), derr)
		}
	}
	return paths, stations, waitfors, unmatched, nil
}

// report renders the bottleneck attribution report: resources ranked
// by their share of mean response time (shares sum to 100% by
// construction — the residual not attributed to any instrumented
// resource is the "other" row), a windowed dominant-bottleneck
// timeline, aggregated station-law samples, and the lock wait-for
// summary.
func (t *traceData) report(w io.Writer, top int) error {
	paths, stations, waitfors, unmatched, err := t.collectAttrib()
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no attrib txnpath instants in the trace (run the simulator without attribution disabled and with -trace-out)")
	}

	var bd attrib.Breakdown
	for i := range paths {
		bd.Observe(&paths[i].vec, paths[i].rt)
	}
	meanRT := bd.MeanRT()
	fmt.Fprintf(w, "bottleneck report: %d transactions attributed, mean RT %.3f ms\n",
		bd.N, float64(meanRT)/float64(time.Millisecond))
	if unmatched > 0 {
		fmt.Fprintf(w, "  (%d txnpath instants without a matching txn span: residual unknown, vector sum used as RT)\n", unmatched)
	}

	var rows []attrib.Res
	for r := attrib.Res(0); r < attrib.NumRes; r++ {
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool { return bd.Share(rows[i]) > bd.Share(rows[j]) })
	fmt.Fprintf(w, "\nresources by attributed share of response time:\n")
	fmt.Fprintf(w, "  %-8s %8s %12s %12s\n", "resource", "share", "wait ms", "service ms")
	var shareSum float64
	for _, r := range rows {
		wait, svc := bd.Mean(r)
		if wait == 0 && svc == 0 {
			continue
		}
		shareSum += bd.Share(r)
		fmt.Fprintf(w, "  %-8s %7.1f%% %12.3f %12.3f\n", r,
			100*bd.Share(r), float64(wait)/float64(time.Millisecond), float64(svc)/float64(time.Millisecond))
	}
	fmt.Fprintf(w, "  %-8s %7.1f%% of measured mean RT\n", "total", 100*shareSum)

	t.reportTimeline(w, paths)
	t.reportStations(w, stations)
	t.reportWaitFor(w, waitfors, top)
	return nil
}

// reportTimeline buckets the txnpath samples into fixed windows and
// prints which resource dominated each window's attributed time.
func (t *traceData) reportTimeline(w io.Writer, paths []pathSample) {
	var tsMin, tsMax float64 = math.Inf(1), math.Inf(-1)
	for _, p := range paths {
		if p.ts < tsMin {
			tsMin = p.ts
		}
		if p.ts > tsMax {
			tsMax = p.ts
		}
	}
	const buckets = 10
	width := (tsMax - tsMin) / buckets
	if width <= 0 {
		return
	}
	wins := make([]attrib.Breakdown, buckets)
	for i := range paths {
		p := &paths[i]
		b := int((p.ts - tsMin) / width)
		if b >= buckets {
			b = buckets - 1
		}
		wins[b].Observe(&p.vec, p.rt)
	}
	fmt.Fprintf(w, "\nbottleneck timeline (%d windows of %.1f ms):\n", buckets, width/1e3)
	for i, win := range wins {
		t0 := (tsMin + float64(i)*width) / 1e3
		if win.N == 0 {
			fmt.Fprintf(w, "  %10.1f ms  %4d txns  -\n", t0, 0)
			continue
		}
		// Shares are of the window's attributed time, residual
		// included, so they stay consistent with the whole-run ranking.
		dom, domT, sum := attrib.ResOther, time.Duration(0), time.Duration(0)
		for r := attrib.Res(0); r < attrib.NumRes; r++ {
			if d := win.Wait[r] + win.Svc[r]; d > domT {
				dom, domT = r, d
			}
			sum += win.Wait[r] + win.Svc[r]
		}
		share := 0.0
		if sum > 0 {
			share = 100 * float64(domT) / float64(sum)
		}
		fmt.Fprintf(w, "  %10.1f ms  %4d txns  %-8s %5.1f%%\n", t0, win.N, dom, share)
	}
}

// reportStations aggregates the windowed station-law samples per
// station: mean utilization and throughput over the run, and the worst
// observed residual of each law.
func (t *traceData) reportStations(w io.Writer, stations []attrib.Laws) {
	if len(stations) == 0 {
		return
	}
	type agg struct {
		name                 string
		servers, n           int
		tput, util           float64
		maxLittle, maxUtilRe float64
	}
	byName := map[string]*agg{}
	for _, s := range stations {
		a := byName[s.Name]
		if a == nil {
			a = &agg{name: s.Name, servers: s.Servers}
			byName[s.Name] = a
		}
		a.n++
		a.tput += s.Throughput
		a.util += s.Utilization
		if s.LittleResid > a.maxLittle {
			a.maxLittle = s.LittleResid
		}
		if s.UtilResid > a.maxUtilRe {
			a.maxUtilRe = s.UtilResid
		}
	}
	aggs := make([]*agg, 0, len(byName))
	for _, a := range byName {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].util != aggs[j].util {
			return aggs[i].util > aggs[j].util
		}
		return aggs[i].name < aggs[j].name
	})
	fmt.Fprintf(w, "\nstation law samples (%d windows):\n", len(stations))
	fmt.Fprintf(w, "  %-14s %4s %10s %8s %12s %12s\n", "station", "srv", "tput/s", "util", "max little", "max utilres")
	for _, a := range aggs {
		fmt.Fprintf(w, "  %-14s %4d %10.1f %7.1f%% %11.1f%% %11.1f%%\n",
			a.name, a.servers, a.tput/float64(a.n), 100*a.util/float64(a.n),
			100*a.maxLittle, 100*a.maxUtilRe)
	}
}

// reportWaitFor summarizes the wait-for graph snapshots: how often the
// graph was non-empty, its peak, and the peak snapshot's detail.
func (t *traceData) reportWaitFor(w io.Writer, waitfors []attrib.WaitForReport, top int) {
	if len(waitfors) == 0 {
		return
	}
	nonEmpty, convoys, peak := 0, 0, -1
	for i, rep := range waitfors {
		if rep.Edges > 0 {
			nonEmpty++
		}
		if rep.Convoy {
			convoys++
		}
		if peak < 0 || rep.Edges > waitfors[peak].Edges {
			peak = i
		}
	}
	fmt.Fprintf(w, "\nlock wait-for graph: %d/%d snapshots with waiters, %d with a convoy\n",
		nonEmpty, len(waitfors), convoys)
	if waitfors[peak].Edges > 0 {
		fmt.Fprintf(w, "  peak snapshot: %s\n", waitfors[peak].EncodeArg())
	}
}

// folded prints the aggregate critical path as folded stacks, one
// "txn;<resource>;<wait|service> <µs>" line per nonzero component.
// Resource order is fixed and values are integral microsecond sums,
// so the output is byte-identical for traces of the same seeded run
// regardless of how the trace was produced (-jobs level, encoding).
func (t *traceData) folded(w io.Writer) error {
	paths, _, _, _, err := t.collectAttrib()
	if err != nil {
		return err
	}
	var total attrib.Breakdown
	for i := range paths {
		total.Observe(&paths[i].vec, paths[i].rt)
	}
	for r := attrib.Res(0); r < attrib.NumRes; r++ {
		if us := total.Wait[r].Microseconds(); us > 0 {
			fmt.Fprintf(w, "txn;%s;wait %d\n", r, us)
		}
		if us := total.Svc[r].Microseconds(); us > 0 {
			fmt.Fprintf(w, "txn;%s;service %d\n", r, us)
		}
	}
	return nil
}
