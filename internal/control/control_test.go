package control

import (
	"reflect"
	"testing"
)

// TestAdmissionThrottleAndRecover walks the half-open state machine:
// multiplicative cut on congestion, a cooldown hold, then additive
// probing back to the ceiling on calm windows.
func TestAdmissionThrottleAndRecover(t *testing.T) {
	a := NewAdmission(64)
	if a.Limit() != 64 {
		t.Fatalf("start limit %d, want the ceiling 64", a.Limit())
	}
	d := a.Update(0.5)
	if d.Action != Throttle || !d.Changed || d.Limit != 32 {
		t.Fatalf("congested window: %+v, want throttle to 32", d)
	}
	// Two cooldown windows hold even though conflict is calm.
	for i := 0; i < 2; i++ {
		if d = a.Update(0.05); d.Action != Hold || d.Limit != 32 {
			t.Fatalf("cooldown window %d: %+v, want hold at 32", i, d)
		}
	}
	// Calm windows probe additively.
	if d = a.Update(0.05); d.Action != Probe || d.Limit != 36 {
		t.Fatalf("calm window: %+v, want probe to 36", d)
	}
	// Mid-band conflict (between low and high) holds.
	if d = a.Update(0.25); d.Action != Hold || d.Limit != 36 {
		t.Fatalf("mid-band window: %+v, want hold at 36", d)
	}
	// Probing saturates at the ceiling and then holds.
	for a.Limit() < 64 {
		d = a.Update(0.0)
	}
	if d.Limit != 64 || !d.Changed {
		t.Fatalf("final probe: %+v, want limit 64", d)
	}
	if d = a.Update(0.0); d.Action != Hold || d.Changed {
		t.Fatalf("at ceiling: %+v, want unchanged hold", d)
	}
}

// TestAdmissionFloor checks the throttle never cuts below MinMPL, and
// that a ceiling below MinMPL is its own floor.
func TestAdmissionFloor(t *testing.T) {
	for _, tc := range []struct{ ceiling, floor int }{
		{64, MinMPL},
		{MinMPL + 1, MinMPL},
		{2, 2},
		{1, 1},
	} {
		a := NewAdmission(tc.ceiling)
		for i := 0; i < 10; i++ {
			a.Update(1)
		}
		if a.Limit() != tc.floor {
			t.Fatalf("ceiling %d: limit %d after sustained congestion, want the floor %d", tc.ceiling, a.Limit(), tc.floor)
		}
		// At the floor a congested window is no longer a change.
		if d := a.Update(1); d.Changed || d.Action != Throttle {
			t.Fatalf("ceiling %d: floor window %+v, want an unchanged throttle", tc.ceiling, d)
		}
		// Calm windows after the cooldown probe back to the ceiling.
		for i := 0; i < Cooldown+20; i++ {
			a.Update(0)
		}
		if a.Limit() != tc.ceiling {
			t.Fatalf("ceiling %d: limit %d after calm windows, want the ceiling", tc.ceiling, a.Limit())
		}
	}
}

// TestImbalance checks the max/mean load metric.
func TestImbalance(t *testing.T) {
	if got := Imbalance(map[int]float64{0: 10, 1: 10}); got != 1 {
		t.Errorf("balanced imbalance = %g, want 1", got)
	}
	if got := Imbalance(map[int]float64{0: 30, 1: 10, 2: 20}); got != 1.5 {
		t.Errorf("imbalance = %g, want 1.5", got)
	}
	if got := Imbalance(nil); got != 0 {
		t.Errorf("empty imbalance = %g, want 0", got)
	}
}

// TestRebalanceMovesLoad checks that the local search narrows a clear
// imbalance, never overshoots, and is deterministic.
func TestRebalanceMovesLoad(t *testing.T) {
	units := []Unit{
		{ID: 0, Node: 0, Weight: 50},
		{ID: 1, Node: 0, Weight: 30},
		{ID: 2, Node: 0, Weight: 20},
		{ID: 3, Node: 1, Weight: 5},
	}
	moves := Rebalance(units, []int{0, 1}, 1.1, 10)
	if len(moves) == 0 {
		t.Fatal("no moves for a 100:5 imbalance")
	}
	per := map[int]float64{0: 0, 1: 0}
	loc := map[int]int{0: 0, 1: 0, 2: 0, 3: 1}
	w := map[int]float64{0: 50, 1: 30, 2: 20, 3: 5}
	for _, m := range moves {
		if loc[m.ID] != m.From {
			t.Fatalf("move %+v from wrong node (unit at %d)", m, loc[m.ID])
		}
		loc[m.ID] = m.To
	}
	for id, n := range loc {
		per[n] += w[id]
	}
	if got := Imbalance(per); got > 1.5 {
		t.Errorf("post-move imbalance %g, want meaningfully reduced", got)
	}
	// Determinism: identical inputs, identical moves.
	again := Rebalance(units, []int{0, 1}, 1.1, 10)
	if !reflect.DeepEqual(moves, again) {
		t.Errorf("rebalance not deterministic: %v vs %v", moves, again)
	}
}

// TestRebalanceBalancedNoMoves checks the no-op cases.
func TestRebalanceBalancedNoMoves(t *testing.T) {
	units := []Unit{{ID: 0, Node: 0, Weight: 10}, {ID: 1, Node: 1, Weight: 10}}
	if moves := Rebalance(units, []int{0, 1}, 1.2, 10); len(moves) != 0 {
		t.Errorf("balanced load produced moves %v", moves)
	}
	if moves := Rebalance(units, []int{0}, 1.2, 10); moves != nil {
		t.Errorf("single node produced moves %v", moves)
	}
	if moves := Rebalance(nil, []int{0, 1}, 1.2, 10); moves != nil {
		t.Errorf("no units produced moves %v", moves)
	}
}

// TestRebalanceMaxMoves checks the move budget is respected.
func TestRebalanceMaxMoves(t *testing.T) {
	var units []Unit
	for i := 0; i < 20; i++ {
		units = append(units, Unit{ID: i, Node: 0, Weight: 10})
	}
	moves := Rebalance(units, []int{0, 1}, 1.0, 3)
	if len(moves) > 3 {
		t.Errorf("%d moves, budget was 3", len(moves))
	}
}

// TestRebalanceOrphans checks units stranded on an ineligible (down)
// node are adopted by the eligible nodes.
func TestRebalanceOrphans(t *testing.T) {
	units := []Unit{
		{ID: 0, Node: 2, Weight: 10}, // node 2 is down
		{ID: 1, Node: 0, Weight: 10},
		{ID: 2, Node: 1, Weight: 10},
	}
	moves := Rebalance(units, []int{0, 1}, 1.2, 10)
	if len(moves) != 1 || moves[0].ID != 0 || moves[0].From != 2 {
		t.Fatalf("orphan adoption moves = %v, want exactly unit 0 off node 2", moves)
	}
}

// TestMigrations checks the GLA migration selection: dominant remote
// requesters above the share and volume thresholds win, sorted by
// traffic.
func TestMigrations(t *testing.T) {
	use := []PartitionUse{
		// Dominant remote requester: migrates.
		{Partition: 0, Home: 0, ByNode: map[int]float64{0: 10, 1: 90}},
		// Home-dominant: stays.
		{Partition: 1, Home: 0, ByNode: map[int]float64{0: 80, 1: 20}},
		// Below the volume floor: stays.
		{Partition: 2, Home: 0, ByNode: map[int]float64{1: 30}},
		// Heavier than partition 0: listed first.
		{Partition: 3, Home: 1, ByNode: map[int]float64{0: 150, 1: 50}},
		// Dominant requester is down: stays.
		{Partition: 4, Home: 0, ByNode: map[int]float64{3: 500}},
	}
	eligible := func(n int) bool { return n != 3 }
	moves := Migrations(use, 0.6, 50, 10, eligible)
	want := []Move{{ID: 3, From: 1, To: 0}, {ID: 0, From: 0, To: 1}}
	if !reflect.DeepEqual(moves, want) {
		t.Fatalf("migrations = %v, want %v", moves, want)
	}
	if moves := Migrations(use, 0.6, 50, 1, eligible); len(moves) != 1 || moves[0].ID != 3 {
		t.Fatalf("maxMoves=1 migrations = %v, want only partition 3", moves)
	}
}
