package trace

import "time"

// Phase identifies where a transaction's response time was spent. The
// decomposition follows the contention analyses of Thomasian and the
// STAR breakdowns: every phase is a wall-clock interval measured on the
// transaction's own process around a top-level blocking call, so the
// intervals are disjoint and their sum never exceeds the response time.
// PhaseOther is the residual, which makes the per-phase sums add up to
// the measured response time exactly.
type Phase int

const (
	PhaseInput    Phase = iota // input queue and MPL admission wait
	PhaseCPU                   // BOT/REF/EOT application path length
	PhaseLockSvc               // lock service: lock-manager path, GEM entry accesses
	PhaseLockWait              // blocked waiting for a local lock grant
	PhaseLockMsg               // remote lock round trips (PCL) incl. remote wait
	PhasePageXfer              // GEM page accesses and node-to-node page transfers
	PhaseIORead                // database disk reads on a buffer miss
	PhaseIOWrite               // force writes at commit
	PhaseLog                   // log writes
	PhaseCommit                // commit processing: lock release, waiter wakeup
	PhaseBackoff               // restart and backoff delay between attempts
	PhaseOther                 // residual response time not in any phase above
	NumPhases
)

var phaseNames = [NumPhases]string{
	"input", "cpu", "lock-svc", "lock-wait", "lock-msg", "page-xfer",
	"io-read", "io-write", "log", "commit", "backoff", "other",
}

// String returns the short phase label used in reports and traces.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Phases accumulates one transaction's per-phase time. A nil *Phases is
// a valid disabled accumulator, so instrumented code records phases
// unconditionally and pays nothing when the breakdown is off.
type Phases struct {
	D [NumPhases]time.Duration
}

// Add records d spent in phase p.
func (p *Phases) Add(ph Phase, d time.Duration) {
	if p == nil || d <= 0 {
		return
	}
	p.D[ph] += d
}

// Sum returns the total time recorded across all phases.
func (p *Phases) Sum() time.Duration {
	if p == nil {
		return 0
	}
	var s time.Duration
	for _, d := range p.D {
		s += d
	}
	return s
}

// Reset clears all recorded phase time.
func (p *Phases) Reset() {
	if p != nil {
		*p = Phases{}
	}
}

// Breakdown aggregates phase times over committed transactions.
type Breakdown struct {
	N   int64                    // committed transactions observed
	RT  time.Duration            // summed response time
	Sum [NumPhases]time.Duration // summed per-phase time, incl. residual
}

// Observe folds one committed transaction into the aggregate: its
// measured phases plus the residual PhaseOther = rt - sum(phases),
// clamped at zero. With disjoint on-process intervals the residual is
// non-negative by construction, so Mean sums reproduce MeanRT exactly.
func (b *Breakdown) Observe(p *Phases, rt time.Duration) {
	if b == nil || p == nil {
		return
	}
	b.N++
	b.RT += rt
	var s time.Duration
	for i := Phase(0); i < PhaseOther; i++ {
		b.Sum[i] += p.D[i]
		s += p.D[i]
	}
	if rest := rt - s; rest > 0 {
		b.Sum[PhaseOther] += rest
	}
}

// Merge folds o into b.
func (b *Breakdown) Merge(o *Breakdown) {
	if b == nil || o == nil {
		return
	}
	b.N += o.N
	b.RT += o.RT
	for i := range b.Sum {
		b.Sum[i] += o.Sum[i]
	}
}

// MeanRT returns the mean response time over observed transactions.
func (b *Breakdown) MeanRT() time.Duration {
	if b == nil || b.N == 0 {
		return 0
	}
	return b.RT / time.Duration(b.N)
}

// Mean returns the mean time per transaction spent in phase p.
func (b *Breakdown) Mean(p Phase) time.Duration {
	if b == nil || b.N == 0 {
		return 0
	}
	return b.Sum[p] / time.Duration(b.N)
}

// Share returns phase p's fraction of total response time.
func (b *Breakdown) Share(p Phase) float64 {
	if b == nil || b.RT == 0 {
		return 0
	}
	return float64(b.Sum[p]) / float64(b.RT)
}

// Reset clears the aggregate.
func (b *Breakdown) Reset() {
	if b != nil {
		*b = Breakdown{}
	}
}
