// Package attrib is the bottleneck-attribution layer: always-on,
// Tier-1-cheap accounting that explains where transaction response
// time goes. It has three parts:
//
//   - critical-path vectors: every transaction carries one record of
//     its response time with two views, the protocol phase each
//     interval was spent in (Phase) and the resource it waited for or
//     was served by, as a (wait, service) pair (Res);
//   - operational-law self-validation: per-station counters (busy-time
//     integral, queue-length integral, wait and service sums) are
//     checked against Little's law and the utilization law, so a run
//     can prove its queues behave lawfully;
//   - wait-for graph analysis: snapshots of the lock wait-for graph
//     are reduced to top blockers, longest chains and convoys.
//
// The package is pure accounting — it owns no simulated time, draws no
// random numbers and schedules no events, so enabling it cannot change
// simulation results. All methods on nil receivers are no-ops, which
// lets instrumentation sites run unconditionally.
package attrib

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Res identifies one attributable resource class on a transaction's
// critical path.
type Res int

const (
	// ResCPU is processor queueing and execution (BOT, per-reference
	// and EOT instruction bursts).
	ResCPU Res = iota
	// ResLock is concurrency control: lock conflict waits plus the
	// cost of lock table accesses (GLT entries in GEM, the lock
	// engine, or local PCL tables).
	ResLock
	// ResGEM is synchronous GEM page traffic: reads and writes against
	// GEM-resident partitions, the GEM write buffer and the GEM cache.
	ResGEM
	// ResBuf is buffer-manager waiting: a transaction parked on a page
	// read already in flight (coalesced miss).
	ResBuf
	// ResDisk is disk I/O: controller, seek/rotation and transfer on
	// the database and log disk groups.
	ResDisk
	// ResNet is message round trips: remote PCL lock requests, page
	// transfer requests and invalidation broadcasts.
	ResNet
	// ResCC is optimistic concurrency-control work: version and
	// validation metadata accesses, end-of-transaction validation.
	// The default 2PL engines never charge it (their lock work is
	// ResLock), so default breakdowns are unchanged.
	ResCC
	// ResOther is everything else: admission (MPL) waiting, abort
	// backoff, and the unattributed residual added by
	// Breakdown.Observe.
	ResOther

	// NumRes is the number of resource classes.
	NumRes
)

var resNames = [NumRes]string{"cpu", "lock", "gem", "buffer", "disk", "net", "cc", "other"}

// String returns the lowercase resource name used in traces and
// reports.
func (r Res) String() string {
	if r < 0 || r >= NumRes {
		return "res(" + strconv.Itoa(int(r)) + ")"
	}
	return resNames[r]
}

// Phase identifies the protocol step a transaction's response time was
// spent in. The decomposition follows the contention analyses of
// Thomasian and the STAR breakdowns: every phase is a wall-clock
// interval measured on the transaction's own process around a
// top-level blocking call, so the intervals are disjoint and their sum
// never exceeds the response time. PhaseOther is the residual
// Breakdown.Observe adds, which makes the per-phase sums add up to the
// measured response time exactly.
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

	// NoPhase charges a window to its resource only: the window lies
	// inside an enclosing phase window that is recorded on its own
	// (the lock release of commit or abort).
	NoPhase Phase = -1
)

var phaseNames = [NumPhases]string{
	"input", "cpu", "lock-svc", "lock-wait", "lock-msg", "page-xfer",
	"io-read", "io-write", "log", "commit", "backoff", "other",
}

// String returns the short phase label used in reports.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Vector is the response-time record of a single transaction: per
// phase, how long it spent there, and per resource, how long it
// waited in queue and how long it was served. A nil *Vector is a valid
// no-op sink, so callers instrument unconditionally and pass nil when
// attribution is off.
type Vector struct {
	Wait  [NumRes]time.Duration
	Svc   [NumRes]time.Duration
	Phase [NumPhases]time.Duration
}

// Add charges wait and service time to resource r. Negative components
// are clamped to zero (a window can be empty); a nil receiver ignores
// the call.
func (v *Vector) Add(r Res, wait, svc time.Duration) {
	if v == nil {
		return
	}
	if wait > 0 {
		v.Wait[r] += wait
	}
	if svc > 0 {
		v.Svc[r] += svc
	}
}

// AddWindow charges an observed window [start, end) whose known
// service portion is svc; the remainder is queueing. This is the
// common instrumentation shape: measure the whole operation, subtract
// the deterministic service demand, attribute the rest to waiting.
func (v *Vector) AddWindow(r Res, elapsed, svc time.Duration) {
	if v == nil {
		return
	}
	if svc > elapsed {
		svc = elapsed
	}
	v.Add(r, elapsed-svc, svc)
}

// AddPhase records d spent in phase p; NoPhase and empty windows are
// ignored.
func (v *Vector) AddPhase(p Phase, d time.Duration) {
	if v == nil || p == NoPhase || d <= 0 {
		return
	}
	v.Phase[p] += d
}

// Charge records one blocking call whose phase window and resource
// window coincide: elapsed goes to phase p, and to resource r split as
// in AddWindow.
func (v *Vector) Charge(p Phase, r Res, elapsed, svc time.Duration) {
	v.AddPhase(p, elapsed)
	v.AddWindow(r, elapsed, svc)
}

// Sum returns the total time attributed across all resources.
func (v *Vector) Sum() time.Duration {
	if v == nil {
		return 0
	}
	var t time.Duration
	for r := Res(0); r < NumRes; r++ {
		t += v.Wait[r] + v.Svc[r]
	}
	return t
}

// EncodeArg renders the vector as a compact trace-instant argument:
// semicolon-separated "res.w=micros" / "res.s=micros" entries in
// resource order, nonzero components only, microseconds with three
// fractional digits. The format is deterministic, so traces diff
// byte-identically across runs.
func (v *Vector) EncodeArg() string {
	if v == nil {
		return ""
	}
	var b strings.Builder
	put := func(r Res, kind string, d time.Duration) {
		if d <= 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s.%s=%.3f", r, kind, float64(d)/float64(time.Microsecond))
	}
	for r := Res(0); r < NumRes; r++ {
		put(r, "w", v.Wait[r])
		put(r, "s", v.Svc[r])
	}
	return b.String()
}

// DecodeArg parses an EncodeArg string back into a vector. Unknown
// and malformed entries are errors.
func DecodeArg(s string) (Vector, error) {
	var v Vector
	if s == "" {
		return v, nil
	}
	fields := make(map[string]func(string) error, 2*NumRes)
	for r := Res(0); r < NumRes; r++ {
		fields[resNames[r]+".w"] = microsTo(&v.Wait[r])
		fields[resNames[r]+".s"] = microsTo(&v.Svc[r])
	}
	err := decodeFields(s, fields)
	return v, err
}

// Breakdown aggregates response-time vectors over completed
// transactions. Observe adds each transaction's unattributed residual
// to PhaseOther and to ResOther, so the per-phase means and the
// per-resource means each sum to exactly the measured mean response
// time: shares sum to 100% in both views.
type Breakdown struct {
	N     int64
	RT    time.Duration
	Wait  [NumRes]time.Duration
	Svc   [NumRes]time.Duration
	Phase [NumPhases]time.Duration
}

// Observe accumulates one transaction's vector against its measured
// response time rt. Time in rt not covered by the phases, and time not
// covered by the resources (each clamped at zero), is credited to
// PhaseOther and to ResOther wait as the residual. A nil receiver
// ignores the call.
func (b *Breakdown) Observe(v *Vector, rt time.Duration) {
	if b == nil || v == nil {
		return
	}
	b.N++
	b.RT += rt
	var sum time.Duration
	for r := Res(0); r < NumRes; r++ {
		b.Wait[r] += v.Wait[r]
		b.Svc[r] += v.Svc[r]
		sum += v.Wait[r] + v.Svc[r]
	}
	if resid := rt - sum; resid > 0 {
		b.Wait[ResOther] += resid
	}
	sum = 0
	for p := Phase(0); p < PhaseOther; p++ {
		b.Phase[p] += v.Phase[p]
		sum += v.Phase[p]
	}
	if resid := rt - sum; resid > 0 {
		b.Phase[PhaseOther] += resid
	}
}

// Merge folds another breakdown into b.
func (b *Breakdown) Merge(o *Breakdown) {
	if b == nil || o == nil {
		return
	}
	b.N += o.N
	b.RT += o.RT
	for r := Res(0); r < NumRes; r++ {
		b.Wait[r] += o.Wait[r]
		b.Svc[r] += o.Svc[r]
	}
	for p := range b.Phase {
		b.Phase[p] += o.Phase[p]
	}
}

// MeanRT returns the mean response time over observed transactions.
func (b *Breakdown) MeanRT() time.Duration {
	if b == nil || b.N == 0 {
		return 0
	}
	return b.RT / time.Duration(b.N)
}

// Mean returns the mean attributed (wait, service) pair for resource
// r.
func (b *Breakdown) Mean(r Res) (wait, svc time.Duration) {
	if b == nil || b.N == 0 {
		return 0, 0
	}
	return b.Wait[r] / time.Duration(b.N), b.Svc[r] / time.Duration(b.N)
}

// Share returns resource r's fraction of total response time (wait
// plus service), in [0, 1].
func (b *Breakdown) Share(r Res) float64 {
	if b == nil || b.RT <= 0 {
		return 0
	}
	return float64(b.Wait[r]+b.Svc[r]) / float64(b.RT)
}

// PhaseMean returns the mean time per transaction spent in phase p.
func (b *Breakdown) PhaseMean(p Phase) time.Duration {
	if b == nil || b.N == 0 {
		return 0
	}
	return b.Phase[p] / time.Duration(b.N)
}

// PhaseShare returns phase p's fraction of total response time.
func (b *Breakdown) PhaseShare(p Phase) float64 {
	if b == nil || b.RT <= 0 {
		return 0
	}
	return float64(b.Phase[p]) / float64(b.RT)
}

// Dominant returns the resource with the largest attributed share and
// that share. Ties break toward the lower Res index, which is
// deterministic.
func (b *Breakdown) Dominant() (Res, float64) {
	best, bestShare := ResOther, 0.0
	if b == nil || b.RT <= 0 {
		return best, bestShare
	}
	for r := Res(0); r < NumRes; r++ {
		if s := b.Share(r); s > bestShare {
			best, bestShare = r, s
		}
	}
	return best, bestShare
}

// Reset zeroes the breakdown (end of warm-up).
func (b *Breakdown) Reset() {
	if b == nil {
		return
	}
	*b = Breakdown{}
}
