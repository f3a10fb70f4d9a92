package recovery

import "testing"

func TestReopenPolicyParse(t *testing.T) {
	cases := []struct {
		in   string
		want ReopenPolicy
		err  bool
	}{
		{"", ReopenOffline, false},
		{"offline", ReopenOffline, false},
		{"incremental", ReopenIncremental, false},
		{"eager", 0, true},
		{"Offline", 0, true},
	}
	for _, c := range cases {
		got, err := ParseReopenPolicy(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseReopenPolicy(%q): expected error", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseReopenPolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if ReopenOffline.String() != "offline" || ReopenIncremental.String() != "incremental" {
		t.Error("policy names must round-trip through String")
	}
}

func TestAssignPartitionsDeterministicAndBalanced(t *testing.T) {
	pages := []int{10, 1, 7, 7, 3, 0, 12}
	a := AssignPartitions(pages, 3)
	b := AssignPartitions(pages, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment not deterministic: %v vs %v", a, b)
		}
		if a[i] < 0 || a[i] >= 3 {
			t.Fatalf("partition %d assigned to worker %d outside [0,3)", i, a[i])
		}
	}
	load := make([]int, 3)
	for part, w := range a {
		load[w] += pages[part]
	}
	// LPT on this input must not leave any worker idle while another
	// holds more than half the total.
	total := 0
	for _, p := range pages {
		total += p
	}
	for w, l := range load {
		if l > total/2+1 {
			t.Fatalf("worker %d overloaded: %d of %d (%v)", w, l, total, load)
		}
	}
	// One worker degenerates to "everything on worker 0".
	for _, w := range AssignPartitions(pages, 1) {
		if w != 0 {
			t.Fatal("single worker must own every partition")
		}
	}
	for _, w := range AssignPartitions(pages, 0) {
		if w != 0 {
			t.Fatal("workers < 1 must clamp to one worker")
		}
	}
}

func TestParallelEstimate(t *testing.T) {
	p := GEMLogParams()
	w := Workload{LogPagesSinceCheckpoint: 1000, DirtyPages: 200, LoserTxns: 10}
	serial := p.Estimate(w)
	if got := p.ParallelEstimate(w, 1); got != serial {
		t.Fatalf("1 worker must reduce to the serial estimate: %v vs %v", got, serial)
	}
	par := p.ParallelEstimate(w, 4)
	if par.LogScan != serial.LogScan/4 || par.Redo != serial.Redo/4 {
		t.Fatalf("4 workers must quarter scan and redo: %v vs %v", par, serial)
	}
	if par.Undo != serial.Undo || par.LockRecovery != serial.LockRecovery {
		t.Fatal("undo and lock recovery stay serial coordinator work")
	}
	if par.Total() >= serial.Total() {
		t.Fatal("parallel replay must shorten the total")
	}
}

// BenchmarkAssignPartitions measures the worker-assignment pass over a
// GLA-partitioned backlog.
func BenchmarkAssignPartitions(b *testing.B) {
	counts := make([]int, 64)
	for i := range counts {
		counts[i] = (i*37)%23 + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := AssignPartitions(counts, 4); len(got) != len(counts) {
			b.Fatal("bad assignment length")
		}
	}
}
