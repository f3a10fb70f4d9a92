package node

import (
	"time"

	"gemsim/internal/sim"
	"gemsim/internal/stats"
)

// The availability tracker quantifies what a crash costs in delivered
// throughput, following the STAR argument that time-to-restart
// understates the outage: what matters is when the complex is back at
// full throughput. It samples committed transactions in fixed windows
// (a self-rescheduling Tier-1 callback, observation only, so armed
// fault runs stay bit-identical), maintains a rolling baseline over
// recent healthy windows, and on a crash freezes that baseline to
// measure time-to-full-throughput — the smoothed throughput of the
// last availRecrossWindows windows recrossing availSLOFactor of it —
// plus per-window unavailability and SLO attainment over the measured
// interval.

// availSLOFactor is the recovered-throughput threshold: a window
// counts as meeting the SLO when it delivers at least this fraction of
// the baseline throughput.
const availSLOFactor = 0.95

// availBaselineWindows is the rolling baseline depth.
const availBaselineWindows = 8

// availRecrossWindows is the recross smoothing depth: a crash counts
// as recovered when the mean throughput of this many recent windows is
// back above the threshold. A single window is too noisy in both
// directions — waiters released in a burst (a fence drop, a retry
// wave) can spike one window over the baseline while the complex is
// still degraded, and ordinary arrival variance dents single healthy
// windows below it.
const availRecrossWindows = 5

type availTracker struct {
	sys    *System
	window time.Duration

	// ring holds the commit counts of recent healthy windows (windows
	// with an unresolved failover are excluded, so a crash does not
	// drag its own recovery target down).
	ring    [availBaselineWindows]float64
	ringIdx int
	ringN   int

	// recent holds the commit counts of the last windows regardless of
	// health; its mean is the recross detector.
	recent    [availRecrossWindows]float64
	recentIdx int

	lastCommits int64

	// Measured-interval SLO state (cleared by ResetStats).
	samples []float64 // per-window unavailability
	wins    int64
	okWins  int64

	pending []*pendingTTFT
}

// pendingTTFT tracks one crash until its throughput recovers. ttft
// stays zero while unresolved (and for crashes whose throughput never
// recrossed the baseline inside the run).
type pendingTTFT struct {
	crashAt  sim.Time
	baseline float64 // commits per window, frozen at crash time
	windows  int     // windows closed since the crash
	ttft     time.Duration
}

// startAvailability arms the windowed availability tracker. It runs
// only on fault-enabled systems: fault-free configurations get no new
// calendar events at all.
func (s *System) startAvailability() {
	if !s.faultsOn || s.avail != nil {
		return
	}
	w := s.params.AvailabilityWindow
	av := &availTracker{sys: s, window: w}
	s.avail = av
	var tick func()
	tick = func() {
		av.tick()
		s.env.After(w, tick)
	}
	s.env.After(w, tick)
}

// totalCommits sums the committed transactions over all nodes since
// the last stats reset.
func (s *System) totalCommits() int64 {
	var c int64
	for _, n := range s.nodes {
		c += n.commits
	}
	return c
}

// baseline returns the rolling healthy-window commit count: the median
// of the ring, so that burst windows (waiters released en masse after
// a recovery) cannot inflate the recovery target of the next crash.
func (av *availTracker) baseline() float64 {
	if av.ringN == 0 {
		return 0
	}
	recent := make([]float64, av.ringN)
	copy(recent, av.ring[:av.ringN])
	return stats.Quantiles(recent, 0.5)[0]
}

// noteCrash freezes the current baseline for a new crash. A crash
// before any healthy window was observed cannot be measured and is
// skipped.
func (av *availTracker) noteCrash(at sim.Time) {
	base := av.baseline()
	if base <= 0 {
		return
	}
	av.pending = append(av.pending, &pendingTTFT{crashAt: at, baseline: base})
}

// tick closes one window: resolve pending crashes whose throughput
// recovered, record the window's unavailability, and fold healthy
// windows into the rolling baseline.
func (av *availTracker) tick() {
	commits := av.sys.totalCommits()
	cur := float64(commits - av.lastCommits)
	av.lastCommits = commits

	av.recent[av.recentIdx] = cur
	av.recentIdx = (av.recentIdx + 1) % availRecrossWindows
	var recentMean float64
	for _, v := range av.recent {
		recentMean += v
	}
	recentMean /= availRecrossWindows

	unresolved := false
	var frozen float64
	for _, pd := range av.pending {
		if pd.ttft != 0 {
			continue
		}
		// Resolution needs the smoothing span to lie entirely after the
		// crash, or healthy pre-crash windows would mask the dip.
		pd.windows++
		if pd.windows >= availRecrossWindows && recentMean >= availSLOFactor*pd.baseline {
			pd.ttft = av.sys.env.Now() - pd.crashAt
			continue
		}
		unresolved = true
		if frozen == 0 {
			frozen = pd.baseline
		}
	}

	// The unavailability sample compares against the frozen baseline
	// of the oldest unresolved crash, or the rolling baseline when the
	// complex is healthy.
	eff := frozen
	if eff == 0 {
		eff = av.baseline()
	}
	if eff > 0 {
		u := 1 - cur/eff
		if u < 0 {
			u = 0
		}
		av.samples = append(av.samples, u)
		av.wins++
		if cur >= availSLOFactor*eff {
			av.okWins++
		}
	}

	if !unresolved {
		av.ring[av.ringIdx] = cur
		av.ringIdx = (av.ringIdx + 1) % availBaselineWindows
		if av.ringN < availBaselineWindows {
			av.ringN++
		}
	}
}

// resetMeasure starts the measurement interval (end of warm-up): SLO
// accumulators clear, the rolling baseline survives (it describes the
// recent healthy throughput either way), and the commit cursor resyncs
// to the reset counters.
func (av *availTracker) resetMeasure(commits int64) {
	av.samples = nil
	av.wins, av.okWins = 0, 0
	av.lastCommits = commits
}

// fill writes the tracker's metrics into the snapshot: the SLO
// aggregates plus per-failover time-to-full-throughput.
func (av *availTracker) fill(m *Metrics) {
	var sum time.Duration
	var n int
	for _, pd := range av.pending {
		if pd.ttft > 0 {
			sum += pd.ttft
			n++
		}
	}
	if n > 0 {
		m.MeanTimeToFullThroughput = sum / time.Duration(n)
	}
	if len(av.samples) > 0 {
		m.P99Unavailability = stats.Quantiles(av.samples, 0.99)[0]
	}
	if av.wins > 0 {
		m.SLOAttainment = float64(av.okWins) / float64(av.wins)
	}
	m.AvailabilityWindows = av.wins
	for i := range m.Failovers {
		fs := &m.Failovers[i]
		for _, pd := range av.pending {
			if pd.crashAt == fs.CrashAt {
				fs.TimeToFullThroughput = pd.ttft
				fs.BaselineTput = pd.baseline / av.window.Seconds()
				break
			}
		}
	}
}
