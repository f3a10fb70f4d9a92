package routing

import (
	"testing"

	"gemsim/internal/model"
	"gemsim/internal/workload"
)

func TestRoundRobinBalances(t *testing.T) {
	r := NewRoundRobin(3)
	counts := make([]int, 3)
	for i := 0; i < 300; i++ {
		counts[r.Route(&model.Txn{})]++
	}
	for n, c := range counts {
		if c != 100 {
			t.Fatalf("node %d got %d transactions, want 100", n, c)
		}
	}
}

func TestDebitCreditAffinityRouting(t *testing.T) {
	params := workload.DefaultDebitCreditParams(400) // 400 branches
	a := NewDebitCreditAffinity(4, params)
	// Branch ranges: 0-99 -> node 0, 100-199 -> node 1, ...
	for b := 0; b < 400; b++ {
		got := a.Route(&model.Txn{Branch: b})
		if got != b/100 {
			t.Fatalf("branch %d routed to %d, want %d", b, got, b/100)
		}
	}
}

func TestDebitCreditGLAConsistentWithRouting(t *testing.T) {
	params := workload.DefaultDebitCreditParams(200)
	a := NewDebitCreditAffinity(2, params)
	for b := 0; b < 200; b++ {
		node := a.Route(&model.Txn{Branch: b})
		// The branch page and all account pages of the branch must
		// have their GLA at the same node.
		if got := a.GLA(model.PageID{File: workload.FileBranchTeller, Page: int32(b)}); got != node {
			t.Fatalf("branch %d: GLA %d != route %d", b, got, node)
		}
		accPage := int32(b * 100000 / 10) // first account page of branch
		if got := a.GLA(model.PageID{File: workload.FileAccount, Page: accPage}); got != node {
			t.Fatalf("branch %d account page: GLA %d != route %d", b, got, node)
		}
	}
}

func TestDebitCreditGLAHistoryNonNegative(t *testing.T) {
	params := workload.DefaultDebitCreditParams(100)
	a := NewDebitCreditAffinity(4, params)
	if got := a.GLA(model.PageID{File: workload.FileHistory, Page: model.AppendPage}); got != 0 {
		t.Fatalf("append page GLA %d", got)
	}
}

func TestDebitCreditGLABalanced(t *testing.T) {
	params := workload.DefaultDebitCreditParams(500)
	a := NewDebitCreditAffinity(5, params)
	counts := make([]int, 5)
	for b := 0; b < 500; b++ {
		counts[a.GLA(model.PageID{File: workload.FileBranchTeller, Page: int32(b)})]++
	}
	for n, c := range counts {
		if c != 100 {
			t.Fatalf("node %d owns %d branches, want 100", n, c)
		}
	}
}

func genTrace(t *testing.T) *workload.Trace {
	t.Helper()
	p := workload.DefaultTraceGenParams(3)
	p.Transactions = 3000
	p.TotalPages = 10000
	p.AdHocTxns = 2
	p.LargestRefs = 1000
	trace, err := workload.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestTraceAffinityBalance(t *testing.T) {
	trace := genTrace(t)
	const nodes = 4
	a := ComputeTraceAffinity(trace, nodes)
	// Load balance: per-node reference volume within the heuristic's
	// 15% bound plus slack.
	load := make([]float64, nodes)
	var total float64
	for i := range trace.Txns {
		tx := &trace.Txns[i]
		load[a.Route(tx)] += float64(len(tx.Refs))
		total += float64(len(tx.Refs))
	}
	for n, l := range load {
		if l > total/nodes*1.5 {
			t.Fatalf("node %d overloaded: %.0f of %.0f", n, l, total)
		}
	}
}

func TestTraceAffinityBeatsRandomOnLocality(t *testing.T) {
	trace := genTrace(t)
	const nodes = 4
	a := ComputeTraceAffinity(trace, nodes)
	rr := NewRoundRobin(nodes)

	locality := func(route func(*model.Txn) int) float64 {
		local, total := 0, 0
		for i := range trace.Txns {
			tx := &trace.Txns[i]
			n := route(tx)
			for _, r := range tx.Refs {
				total++
				if a.GLA(r.Page) == n {
					local++
				}
			}
		}
		return float64(local) / float64(total)
	}
	affinityLocal := locality(a.Route)
	randomLocal := locality(rr.Route)
	t.Logf("lock locality: affinity=%.3f random=%.3f", affinityLocal, randomLocal)
	if affinityLocal <= randomLocal {
		t.Fatalf("affinity locality %.3f not better than random %.3f", affinityLocal, randomLocal)
	}
	if affinityLocal < 0.4 {
		t.Fatalf("affinity locality %.3f too low", affinityLocal)
	}
}

func TestTraceAffinitySingleNode(t *testing.T) {
	trace := genTrace(t)
	a := ComputeTraceAffinity(trace, 1)
	for i := range trace.Txns {
		if a.Route(&trace.Txns[i]) != 0 {
			t.Fatal("single node must route everything to node 0")
		}
	}
	if a.GLA(model.PageID{File: 0, Page: 0}) != 0 {
		t.Fatal("single node GLA")
	}
}

func TestTraceAffinityGLAInRange(t *testing.T) {
	trace := genTrace(t)
	const nodes = 3
	a := ComputeTraceAffinity(trace, nodes)
	for i := range trace.Files {
		f := &trace.Files[i]
		for p := int32(0); p < f.Pages; p += 17 {
			g := a.GLA(model.PageID{File: f.ID, Page: p})
			if g < 0 || g >= nodes {
				t.Fatalf("GLA %d out of range for page %d:%d", g, f.ID, p)
			}
		}
	}
	// Unknown files fall back to node 0.
	if a.GLA(model.PageID{File: 99, Page: 0}) != 0 {
		t.Fatal("unknown file GLA")
	}
}
