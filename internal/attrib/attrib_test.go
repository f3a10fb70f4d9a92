package attrib

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestBreakdownSharesSumToOne(t *testing.T) {
	var b Breakdown
	v := &Vector{}
	v.Add(ResCPU, 2*time.Millisecond, 5*time.Millisecond)
	v.Add(ResDisk, 0, 15*time.Millisecond)
	// 8 ms of the 30 ms RT is unattributed: must land in ResOther.
	b.Observe(v, 30*time.Millisecond)

	var total float64
	for r := Res(0); r < NumRes; r++ {
		total += b.Share(r)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %.6f, want 1", total)
	}
	if w, _ := b.Mean(ResOther); w != 8*time.Millisecond {
		t.Fatalf("residual %v, want 8ms", w)
	}
	if b.MeanRT() != 30*time.Millisecond {
		t.Fatalf("mean RT %v", b.MeanRT())
	}
}

func TestBreakdownOverAttributedClamps(t *testing.T) {
	// A vector that over-covers RT (overlapping windows) must not
	// produce a negative residual.
	var b Breakdown
	v := &Vector{}
	v.Add(ResCPU, 0, 20*time.Millisecond)
	b.Observe(v, 10*time.Millisecond)
	if w, _ := b.Mean(ResOther); w != 0 {
		t.Fatalf("residual %v, want 0", w)
	}
}

// TestPhasesBreakdown checks the invariant the phase table relies on:
// per-phase means plus the residual sum exactly to the mean response
// time, independently of the resource view of the same vectors.
func TestPhasesBreakdown(t *testing.T) {
	var b Breakdown
	v1 := &Vector{}
	v1.Charge(PhaseCPU, ResCPU, 10*time.Millisecond, 8*time.Millisecond)
	v1.AddPhase(PhaseIORead, 5*time.Millisecond)
	b.Observe(v1, 20*time.Millisecond) // 5ms phase residual
	v2 := &Vector{}
	v2.AddPhase(PhaseCPU, 30*time.Millisecond)
	v2.AddPhase(NoPhase, time.Second)  // nested window: no phase of its own
	b.Observe(v2, 30*time.Millisecond) // no phase residual

	if b.N != 2 {
		t.Fatalf("N = %d, want 2", b.N)
	}
	if got, want := b.MeanRT(), 25*time.Millisecond; got != want {
		t.Errorf("MeanRT = %v, want %v", got, want)
	}
	var sum time.Duration
	var share float64
	for p := Phase(0); p < NumPhases; p++ {
		sum += b.PhaseMean(p)
		share += b.PhaseShare(p)
	}
	if sum != b.MeanRT() {
		t.Errorf("phase means sum to %v, want MeanRT %v", sum, b.MeanRT())
	}
	if math.Abs(share-1) > 1e-12 {
		t.Errorf("phase shares sum to %v, want 1", share)
	}
	if got, want := b.PhaseMean(PhaseOther), 2500*time.Microsecond; got != want {
		t.Errorf("PhaseMean(other) = %v, want %v", got, want)
	}
	// The resource view closes its own residual: 10ms of CPU window
	// against 50ms of response time leaves 40ms to ResOther.
	if w, s := b.Mean(ResCPU); w != time.Millisecond || s != 4*time.Millisecond {
		t.Errorf("cpu mean (wait, svc) = (%v, %v), want (1ms, 4ms)", w, s)
	}
	if w, _ := b.Mean(ResOther); w != 20*time.Millisecond {
		t.Errorf("resource residual mean %v, want 20ms", w)
	}

	// Residuals are clamped: over-attributed phases never go negative.
	var c Breakdown
	v3 := &Vector{}
	v3.AddPhase(PhaseCPU, 10*time.Millisecond)
	c.Observe(v3, 5*time.Millisecond)
	if c.Phase[PhaseOther] != 0 {
		t.Errorf("negative residual not clamped: %v", c.Phase[PhaseOther])
	}

	// Merge adds the phase sums.
	c.Merge(&b)
	if c.N != 3 || c.Phase[PhaseCPU] != 50*time.Millisecond {
		t.Errorf("merged N %d, cpu %v; want 3, 50ms", c.N, c.Phase[PhaseCPU])
	}
}

func TestDominant(t *testing.T) {
	var b Breakdown
	v := &Vector{}
	v.Add(ResLock, 60*time.Millisecond, 0)
	v.Add(ResCPU, 0, 30*time.Millisecond)
	b.Observe(v, 100*time.Millisecond)
	r, share := b.Dominant()
	if r != ResLock || math.Abs(share-0.6) > 1e-9 {
		t.Fatalf("dominant %v %.3f, want lock 0.600", r, share)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var v *Vector
	v.Add(ResCPU, time.Second, time.Second)
	v.AddWindow(ResDisk, time.Second, time.Millisecond)
	v.Charge(PhaseCPU, ResCPU, time.Second, time.Millisecond)
	if v.Sum() != 0 || v.EncodeArg() != "" {
		t.Fatal("nil vector must be inert")
	}
	var b *Breakdown
	b.Observe(&Vector{}, time.Second)
	b.Merge(&Breakdown{N: 1})
	if b.MeanRT() != 0 {
		t.Fatal("nil breakdown must be inert")
	}
}

func TestVectorArgRoundTrip(t *testing.T) {
	v := &Vector{}
	v.Add(ResCPU, 1500*time.Microsecond, 2*time.Millisecond)
	v.Add(ResNet, 750*time.Microsecond, 0)
	arg := v.EncodeArg()
	if want := "cpu.w=1500.000;cpu.s=2000.000;net.w=750.000"; arg != want {
		t.Fatalf("arg %q, want %q", arg, want)
	}
	got, err := DecodeArg(arg)
	if err != nil {
		t.Fatal(err)
	}
	if got != *v {
		t.Fatalf("round trip %+v != %+v", got, *v)
	}
	if _, err := DecodeArg("bogus.w=1"); err == nil {
		t.Fatal("unknown resource must error")
	}
	if _, err := DecodeArg("cpu.x=1"); err == nil {
		t.Fatal("unknown kind must error")
	}

	// Station laws: the encoding rounds, so the round trip is checked
	// on the encoded form.
	laws := Derive(StationCounters{Name: "disk0", Servers: 2, Elapsed: 3 * time.Second,
		BusySeconds: 2.5, QSeconds: 0.7, Requests: 321, WaitSum: 700 * time.Millisecond})
	l, err := DecodeLaws(laws.EncodeArg())
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "disk0" || l.Servers != 2 || l.EncodeArg() != laws.EncodeArg() {
		t.Fatalf("laws round trip %q != %q", l.EncodeArg(), laws.EncodeArg())
	}
	for _, bad := range []string{"station=disk0", "station=disk0;servers=2;tput=1;util=1;wq=1;lq=1;little=1;utilresid=1;extra=1", "station=disk0;servers=x;tput=1;util=1;wq=1;lq=1;little=1;utilresid=1"} {
		if _, err := DecodeLaws(bad); err == nil {
			t.Errorf("DecodeLaws(%q) accepted a missing, unknown or malformed field", bad)
		}
	}

	// Wait-for reports, with and without the optional top and chain.
	for _, rep := range []WaitForReport{
		AnalyzeWaitFor([]WaitEdge{{"n0/t2", "n0/t1"}, {"n1/t3", "n0/t2"}, {"n0/t4", "n0/t1"}}, 5),
		AnalyzeWaitFor(nil, 5),
	} {
		got, err := DecodeWaitFor(rep.EncodeArg())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("wait-for round trip %+v != %+v", got, rep)
		}
	}
	for _, bad := range []string{"edges=x;waiters=?", "edges=1;waiters=1", "edges=1;waiters=1;convoy=yes", "edges=1;waiters=1;convoy=false;top=n0/t1"} {
		if _, err := DecodeWaitFor(bad); err == nil {
			t.Errorf("DecodeWaitFor(%q) accepted a malformed report", bad)
		}
	}
}

func TestDeriveLaws(t *testing.T) {
	// A synthetic steady station: 1000 requests over 10 s, queue
	// integral exactly matching the wait sum, busy time matching the
	// service sum.
	c := StationCounters{
		Name:        "disk",
		Servers:     2,
		Elapsed:     10 * time.Second,
		BusySeconds: 8.0,
		QSeconds:    1.5,
		Requests:    1000,
		WaitSum:     1500 * time.Millisecond,
		SvcSum:      8 * time.Second,
		SvcN:        1000,
	}
	l := Derive(c)
	if math.Abs(l.Throughput-100) > 1e-9 || math.Abs(l.Utilization-0.4) > 1e-9 {
		t.Fatalf("tput %.3f util %.3f", l.Throughput, l.Utilization)
	}
	if l.LittleResid > 1e-9 || l.UtilResid > 1e-9 {
		t.Fatalf("residuals %.6f %.6f, want 0", l.LittleResid, l.UtilResid)
	}
	if !l.SvcTracked {
		t.Fatal("service fully tracked")
	}
	if warns := l.Check(0.05); len(warns) != 0 {
		t.Fatalf("unexpected warnings %v", warns)
	}

	// Break the queue integral: Little's law must warn.
	c.QSeconds = 3.0
	l = Derive(c)
	warns := l.Check(0.05)
	if len(warns) != 1 || !strings.Contains(warns[0], "Little") {
		t.Fatalf("want a Little's-law warning, got %v", warns)
	}

	// Untracked service (hold-style composites): no utilization check.
	c.SvcN = 10
	l = Derive(c)
	if l.SvcTracked || l.UtilResid != 0 {
		t.Fatal("partially tracked service must disable the utilization law")
	}
}

func TestAnalyzeWaitFor(t *testing.T) {
	// t1..t5 all wait on t9 (convoy); t9 waits on t10.
	var edges []WaitEdge
	for _, w := range []string{"0/1", "0/2", "1/3", "1/4", "2/5"} {
		edges = append(edges, WaitEdge{Waiter: w, Holder: "0/9"})
	}
	edges = append(edges, WaitEdge{Waiter: "0/9", Holder: "1/10"})
	rep := AnalyzeWaitFor(edges, 3)
	if rep.Edges != 6 || rep.Waiters != 6 {
		t.Fatalf("edges %d waiters %d", rep.Edges, rep.Waiters)
	}
	if !rep.Convoy {
		t.Fatal("five direct waiters must flag a convoy")
	}
	if rep.TopBlockers[0].Holder != "0/9" || rep.TopBlockers[0].Waiters != 5 {
		t.Fatalf("top blocker %+v", rep.TopBlockers[0])
	}
	want := []string{"0/1", "0/9", "1/10"}
	if len(rep.LongestChain) != 3 {
		t.Fatalf("chain %v", rep.LongestChain)
	}
	for i, n := range want {
		if rep.LongestChain[i] != n {
			t.Fatalf("chain %v, want %v", rep.LongestChain, want)
		}
	}

	// A deadlock cycle must not loop forever.
	cyc := []WaitEdge{{"a", "b"}, {"b", "a"}}
	rep = AnalyzeWaitFor(cyc, 0)
	if len(rep.LongestChain) != 2 {
		t.Fatalf("cycle chain %v", rep.LongestChain)
	}

	if got := rep.EncodeArg(); !strings.Contains(got, "edges=2") {
		t.Fatalf("arg %q", got)
	}
}

func TestEmptyWaitFor(t *testing.T) {
	rep := AnalyzeWaitFor(nil, 5)
	if rep.Edges != 0 || rep.Convoy || len(rep.LongestChain) != 0 {
		t.Fatalf("empty graph report %+v", rep)
	}
}
