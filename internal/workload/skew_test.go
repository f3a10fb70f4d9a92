package workload

import (
	"testing"
	"time"

	"gemsim/internal/rng"
)

func skewedParams(t *testing.T, sk *Skew) DebitCreditParams {
	t.Helper()
	p := DefaultDebitCreditParams(400)
	p.Skew = sk
	return p
}

// TestSkewValidate covers the parameter-range checks.
func TestSkewValidate(t *testing.T) {
	bad := []Skew{
		{BranchTheta: 1.0},
		{BranchTheta: -0.1},
		{AccountTheta: 1.2},
		{HotFraction: 0.1}, // HotProb missing
		{HotProb: 0.8},     // HotFraction missing
		{HotFraction: 1.5, HotProb: 0.5},
		{Drift: []DriftStep{{At: time.Second, Rotate: 0}}},
		{Drift: []DriftStep{{At: time.Second, Rotate: 1}}},
		{Drift: []DriftStep{{At: 2 * time.Second, Rotate: 0.5}, {At: time.Second, Rotate: 0.5}}},
		{Drift: []DriftStep{{At: -time.Second, Rotate: 0.5}}},
	}
	for i, sk := range bad {
		sk := sk
		if err := sk.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid skew %+v", i, sk)
		}
	}
	good := []Skew{
		{},
		{BranchTheta: 0.8, AccountTheta: 0.5},
		{HotFraction: 0.1, HotProb: 0.8},
		{BranchTheta: 0.8, Drift: []DriftStep{{At: time.Second, Rotate: 0.25}, {At: 2 * time.Second, Rotate: 0.25}}},
	}
	for i, sk := range good {
		sk := sk
		if err := sk.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected valid skew: %v", i, err)
		}
	}
	var nilSkew *Skew
	if err := nilSkew.Validate(); err != nil {
		t.Errorf("nil skew must validate: %v", err)
	}
	if nilSkew.Enabled() {
		t.Error("nil skew must not report enabled")
	}
}

// TestSkewNilDrawParity checks the byte-identical guarantee behind the
// pre-existing figure tables: a generator without skew produces exactly
// the same transaction sequence whatever the submission time, drawing
// the same number of values from the stream.
func TestSkewNilDrawParity(t *testing.T) {
	p := DefaultDebitCreditParams(400)
	a, err := NewDebitCredit(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDebitCredit(p)
	if err != nil {
		t.Fatal(err)
	}
	srcA, srcB := rng.New(99), rng.New(99)
	for i := 0; i < 2000; i++ {
		ta := a.Next(srcA, 0)
		tb := b.Next(srcB, time.Duration(i)*time.Second)
		if ta.Branch != tb.Branch || len(ta.Refs) != len(tb.Refs) {
			t.Fatalf("txn %d diverged: branch %d at time 0, %d later", i, ta.Branch, tb.Branch)
		}
		for j := range ta.Refs {
			if ta.Refs[j] != tb.Refs[j] {
				t.Fatalf("txn %d ref %d diverged: %+v vs %+v", i, j, ta.Refs[j], tb.Refs[j])
			}
		}
	}
}

// TestSkewBranchDistribution checks that a skewed generator concentrates
// load: with Zipf theta 0.8 the top branch must be drawn far more often
// than the uniform share.
func TestSkewBranchDistribution(t *testing.T) {
	g, err := NewDebitCredit(skewedParams(t, &Skew{BranchTheta: 0.8}))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	counts := make(map[int]int)
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[g.Next(src, 0).Branch]++
	}
	uniform := float64(draws) / float64(g.Params().Branches)
	if top := float64(counts[0]); top < 5*uniform {
		t.Errorf("branch 0 drawn %d times, want at least 5x the uniform share %.0f", counts[0], uniform)
	}
}

// TestSkewDrift checks the drift schedule: after the rotation time the
// hottest physical branch moves by Rotate*Branches.
func TestSkewDrift(t *testing.T) {
	sk := &Skew{
		BranchTheta: 0.8,
		Drift:       []DriftStep{{At: 10 * time.Second, Rotate: 0.5}},
	}
	g, err := NewDebitCredit(skewedParams(t, sk))
	if err != nil {
		t.Fatal(err)
	}
	branches := g.Params().Branches
	hottest := func(at time.Duration) int {
		src := rng.New(5)
		counts := make(map[int]int)
		for i := 0; i < 20000; i++ {
			counts[g.Next(src, at).Branch]++
		}
		best, bestN := 0, -1
		for b, n := range counts {
			if n > bestN || (n == bestN && b < best) {
				best, bestN = b, n
			}
		}
		return best
	}
	before, after := hottest(0), hottest(11*time.Second)
	want := (before + branches/2) % branches
	if after != want {
		t.Errorf("hottest branch moved %d -> %d after drift, want %d", before, after, want)
	}
	// The drift is cumulative and monotone: before its time the
	// rotation must be zero.
	if again := hottest(9 * time.Second); again != before {
		t.Errorf("hottest branch %d before the drift step, want %d", again, before)
	}
}

// TestSkewHotSet checks the two-level hot-spot model: the configured
// fraction of branches absorbs at least the configured probability mass.
func TestSkewHotSet(t *testing.T) {
	sk := &Skew{HotFraction: 0.05, HotProb: 0.8}
	g, err := NewDebitCredit(skewedParams(t, sk))
	if err != nil {
		t.Fatal(err)
	}
	hotN := int(0.05*float64(g.Params().Branches) + 0.5)
	src := rng.New(11)
	const draws = 50000
	hot := 0
	for i := 0; i < draws; i++ {
		if g.Next(src, 0).Branch < hotN {
			hot++
		}
	}
	share := float64(hot) / draws
	if share < 0.75 || share > 0.85 {
		t.Errorf("hot set received %.1f%% of draws, want about 80%%", share*100)
	}
}

// TestSkewDeterminism checks that skewed generation is a pure function
// of the stream and the submission time.
func TestSkewDeterminism(t *testing.T) {
	sk := &Skew{BranchTheta: 0.8, AccountTheta: 0.4,
		Drift: []DriftStep{{At: 5 * time.Second, Rotate: 0.25}}}
	mk := func() *DebitCredit {
		g, err := NewDebitCredit(skewedParams(t, sk))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	srcA, srcB, srcC := rng.New(17), rng.New(17), rng.New(18)
	diverged := false
	for i := 0; i < 2000; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		ta, tb := a.Next(srcA, at), b.Next(srcB, at)
		if ta.Branch != tb.Branch {
			t.Fatalf("txn %d: same seed diverged (%d vs %d)", i, ta.Branch, tb.Branch)
		}
		if ta.Branch != a.Next(srcC, at).Branch {
			diverged = true
		}
	}
	if !diverged {
		t.Error("distinct seeds produced identical branch sequences")
	}
}
