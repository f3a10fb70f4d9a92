package attrib

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// DefaultTolerance is the relative residual above which a run's law
// check warns: 5% leaves room for boundary effects (jobs in
// flight at the interval edges) on runs of a few simulated minutes
// while still catching genuine accounting bugs, which produce
// residuals an order of magnitude larger.
const DefaultTolerance = 0.05

// StationCounters is a raw counter snapshot for one queueing station
// over an observation interval, as accumulated by sim.Resource. All
// integrals are in (jobs or servers) × seconds.
type StationCounters struct {
	Name        string
	Servers     int
	Elapsed     time.Duration // observation interval length
	BusySeconds float64       // server-busy time integral
	QSeconds    float64       // queue-length (waiting jobs) integral
	Requests    int64         // arrivals = completions at steady state
	WaitSum     time.Duration // total time spent waiting in queue
	SvcSum      time.Duration // total service demand of tracked cycles
	SvcN        int64         // number of cycles with tracked service time
}

// Laws is the derived operational-law report for one station.
//
// Little's law is checked on the waiting line: the time-average number
// of waiting jobs (QSeconds/T) must equal arrival rate times mean wait
// (WaitSum/T). The utilization law is checked on the servers: measured
// busy time must equal the summed service demand. Both residuals are
// relative, in [0, 1]-ish; at steady state they are boundary effects
// (jobs in flight at the window edges) and shrink with the window.
type Laws struct {
	Name        string
	Servers     int
	Throughput  float64 // requests per second
	Utilization float64 // mean busy fraction per server
	MeanWait    time.Duration
	MeanSvc     time.Duration // zero when SvcTracked is false
	MeanQueue   float64       // time-average waiting jobs
	LittleResid float64
	UtilResid   float64
	// SvcTracked reports whether every service cycle carried a known
	// demand (SvcN == Requests). Stations used through hold-style
	// acquire/release composites (the CPU under GEM coupling) cannot
	// track per-cycle demand, so the utilization law is not checkable
	// there and UtilResid is zero.
	SvcTracked bool
}

// Derive computes the operational-law report from raw counters.
func Derive(c StationCounters) Laws {
	l := Laws{Name: c.Name, Servers: c.Servers}
	t := c.Elapsed.Seconds()
	if t <= 0 {
		return l
	}
	l.Throughput = float64(c.Requests) / t
	l.Utilization = c.BusySeconds / (float64(c.Servers) * t)
	l.MeanQueue = c.QSeconds / t
	if c.Requests > 0 {
		l.MeanWait = c.WaitSum / time.Duration(c.Requests)
	}
	l.SvcTracked = c.SvcN > 0 && c.SvcN == c.Requests
	if l.SvcTracked {
		l.MeanSvc = c.SvcSum / time.Duration(c.SvcN)
	}

	// Little's law on the waiting line: Lq = lambda * Wq. Both sides
	// reduce to an integral over the interval, so compare
	// QSeconds vs WaitSum directly.
	l.LittleResid = relResid(c.QSeconds, c.WaitSum.Seconds())
	// Utilization law: U = X * S per server, i.e. busy time equals
	// summed service demand.
	if l.SvcTracked {
		l.UtilResid = relResid(c.BusySeconds, c.SvcSum.Seconds())
	}
	return l
}

// relResid returns |a-b| relative to the larger magnitude, zero when
// both sides are negligible (an idle station trivially satisfies the
// laws).
func relResid(a, b float64) float64 {
	max := a
	if b > max {
		max = b
	}
	const negligible = 1e-9 // below a nanosecond of integral: idle
	if max < negligible {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / max
}

// Check returns tolerance warnings for laws whose residual exceeds
// tol. Near-idle lines are skipped: with a time-average queue of a
// few thousandths of a job, one request in flight at a window edge
// dominates the relative residual without indicating unlawful
// queueing.
func (l Laws) Check(tol float64) []string {
	const minQueue = 1e-3 // time-average waiting jobs below this: skip
	if tol <= 0 || l.Throughput <= 0 {
		return nil
	}
	var warns []string
	lambdaWq := l.Throughput * l.MeanWait.Seconds()
	if l.LittleResid > tol && (l.MeanQueue > minQueue || lambdaWq > minQueue) {
		warns = append(warns, fmt.Sprintf(
			"station %s: Little's-law residual %.1f%% exceeds %.0f%% (Lq=%.4f vs lambda*Wq=%.4f)",
			l.Name, 100*l.LittleResid, 100*tol, l.MeanQueue, lambdaWq))
	}
	if l.SvcTracked && l.UtilResid > tol {
		warns = append(warns, fmt.Sprintf(
			"station %s: utilization-law residual %.1f%% exceeds %.0f%% (U=%.4f vs X*S=%.4f)",
			l.Name, 100*l.UtilResid, 100*tol,
			l.Utilization, l.Throughput*l.MeanSvc.Seconds()/float64(l.Servers)))
	}
	return warns
}

// EncodeArg renders the law report as a trace-instant argument in a
// fixed field order.
func (l Laws) EncodeArg() string {
	return fmt.Sprintf("station=%s;servers=%d;tput=%.3f;util=%.4f;wq=%.3f;lq=%.4f;little=%.4f;utilresid=%.4f",
		l.Name, l.Servers, l.Throughput, l.Utilization,
		float64(l.MeanWait)/float64(time.Microsecond), l.MeanQueue, l.LittleResid, l.UtilResid)
}

// DecodeLaws parses an EncodeArg string back into a law report;
// MeanSvc and SvcTracked are not encoded and stay zero. Unknown,
// missing and malformed fields are errors.
func DecodeLaws(s string) (Laws, error) {
	var l Laws
	err := decodeFields(s, map[string]func(string) error{
		"station":   func(v string) error { l.Name = v; return nil },
		"servers":   intTo(&l.Servers),
		"tput":      floatTo(&l.Throughput),
		"util":      floatTo(&l.Utilization),
		"wq":        microsTo(&l.MeanWait),
		"lq":        floatTo(&l.MeanQueue),
		"little":    floatTo(&l.LittleResid),
		"utilresid": floatTo(&l.UtilResid),
	}, "station", "servers", "tput", "util", "wq", "lq", "little", "utilresid")
	return l, err
}

// decodeFields parses a "key=value;key=value" argument: every key must
// have a parser in fields, and every required key must appear.
func decodeFields(s string, fields map[string]func(string) error, required ...string) error {
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ";") {
		key, val, ok := strings.Cut(part, "=")
		parse := fields[key]
		if !ok || parse == nil {
			return fmt.Errorf("attrib: unknown entry %q", part)
		}
		if err := parse(val); err != nil {
			return fmt.Errorf("attrib: field %q has bad value %q", key, val)
		}
		seen[key] = true
	}
	for _, key := range required {
		if !seen[key] {
			return fmt.Errorf("attrib: missing field %q", key)
		}
	}
	return nil
}

func intTo(p *int) func(string) error {
	return func(s string) (err error) {
		*p, err = strconv.Atoi(s)
		return err
	}
}

func floatTo(p *float64) func(string) error {
	return func(s string) (err error) {
		*p, err = strconv.ParseFloat(s, 64)
		return err
	}
}

// microsTo parses a non-negative duration in microseconds.
func microsTo(p *time.Duration) func(string) error {
	return func(s string) error {
		us, err := strconv.ParseFloat(s, 64)
		if err == nil && us < 0 {
			err = errors.New("negative duration")
		}
		*p = time.Duration(us * float64(time.Microsecond))
		return err
	}
}
