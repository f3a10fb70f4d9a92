package routing

import (
	"sort"

	"gemsim/internal/model"
	"gemsim/internal/workload"
)

// TraceAffinity is an affinity-based workload allocation for a trace
// workload: a routing table mapping every transaction type to a node,
// plus a coordinated GLA assignment over range-partitioned units of the
// database, both derived from the reference distribution by a greedy
// assignment with iterative improvement (the paper's heuristics
// [Ra92b]).
type TraceAffinity struct {
	nodes      int
	typeToNode []int
	buckets    int
	filePages  map[model.FileID]int32
	unitToNode map[model.FileID][]int
}

var (
	_ Router = (*TraceAffinity)(nil)
	_ GLAMap = (*TraceAffinity)(nil)
)

// unitsPerFile is the number of range partitions per file used as the
// granularity of GLA assignment and of the affinity cost function.
const unitsPerFile = 32

// ComputeTraceAffinity derives routing table and GLA assignment for the
// given trace and node count.
func ComputeTraceAffinity(trace *workload.Trace, nodes int) *TraceAffinity {
	a := &TraceAffinity{
		nodes:      nodes,
		typeToNode: make([]int, trace.Types),
		buckets:    unitsPerFile,
		filePages:  make(map[model.FileID]int32, len(trace.Files)),
		unitToNode: make(map[model.FileID][]int, len(trace.Files)),
	}
	for i := range trace.Files {
		f := &trace.Files[i]
		a.filePages[f.ID] = f.Pages
		a.unitToNode[f.ID] = make([]int, a.buckets)
	}
	if nodes == 1 {
		return a
	}

	// Reference counts per type and per (type, unit).
	nUnits := len(trace.Files) * a.buckets
	unitIndex := make(map[model.FileID]int, len(trace.Files))
	for i := range trace.Files {
		unitIndex[trace.Files[i].ID] = i * a.buckets
	}
	typeRefs := make([]float64, trace.Types)
	typeUnit := make([][]float64, trace.Types)
	for i := range typeUnit {
		typeUnit[i] = make([]float64, nUnits)
	}
	for i := range trace.Txns {
		tx := &trace.Txns[i]
		typeRefs[tx.Type] += float64(len(tx.Refs))
		for _, r := range tx.Refs {
			u := unitIndex[r.Page.File] + a.bucketOf(r.Page)
			typeUnit[tx.Type][u]++
		}
	}

	// Greedy assignment: place types in descending reference volume on
	// the node with the highest co-reference overlap, subject to a
	// load balance bound.
	order := make([]int, trace.Types)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return typeRefs[order[i]] > typeRefs[order[j]] })

	var total float64
	for _, v := range typeRefs {
		total += v
	}
	maxLoad := total / float64(nodes) * 1.15
	nodeLoad := make([]float64, nodes)
	nodeUnit := make([][]float64, nodes)
	for i := range nodeUnit {
		nodeUnit[i] = make([]float64, nUnits)
	}
	for i := range a.typeToNode {
		a.typeToNode[i] = -1
	}

	overlap := func(t, n int) float64 {
		var sum float64
		for u, v := range typeUnit[t] {
			if v > 0 && nodeUnit[n][u] > 0 {
				if v < nodeUnit[n][u] {
					sum += v
				} else {
					sum += nodeUnit[n][u]
				}
			}
		}
		return sum
	}
	place := func(t, n int) {
		a.typeToNode[t] = n
		nodeLoad[n] += typeRefs[t]
		for u, v := range typeUnit[t] {
			nodeUnit[n][u] += v
		}
	}
	unplace := func(t int) {
		n := a.typeToNode[t]
		a.typeToNode[t] = -1
		nodeLoad[n] -= typeRefs[t]
		for u, v := range typeUnit[t] {
			nodeUnit[n][u] -= v
		}
	}

	for _, t := range order {
		best, bestScore := -1, -1.0
		for n := 0; n < nodes; n++ {
			if nodeLoad[n]+typeRefs[t] > maxLoad && nodeLoad[n] > 0 {
				continue
			}
			// Prefer co-reference overlap; break ties towards the
			// least loaded node.
			score := overlap(t, n) - nodeLoad[n]*1e-9
			if best == -1 || score > bestScore {
				best, bestScore = n, score
			}
		}
		if best == -1 {
			// Balance bound unreachable; fall back to least loaded.
			best = 0
			for n := 1; n < nodes; n++ {
				if nodeLoad[n] < nodeLoad[best] {
					best = n
				}
			}
		}
		place(t, best)
	}

	// Iterative improvement: move single types between nodes while the
	// total co-reference overlap grows and balance holds.
	for pass := 0; pass < 8; pass++ {
		improved := false
		for t := 0; t < trace.Types; t++ {
			cur := a.typeToNode[t]
			unplace(t)
			best, bestScore := cur, overlap(t, cur)
			for n := 0; n < nodes; n++ {
				if n == cur {
					continue
				}
				if nodeLoad[n]+typeRefs[t] > maxLoad {
					continue
				}
				if s := overlap(t, n); s > bestScore {
					best, bestScore = n, s
				}
			}
			place(t, best)
			if best != cur {
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	// GLA assignment: every unit goes to the node that references it
	// most under the chosen routing.
	for fid, units := range a.unitToNode {
		base := unitIndex[fid]
		for b := range units {
			best, bestRefs := 0, -1.0
			for n := 0; n < nodes; n++ {
				if nodeUnit[n][base+b] > bestRefs {
					best, bestRefs = n, nodeUnit[n][base+b]
				}
			}
			units[b] = best
		}
	}
	return a
}

// bucketOf maps a page to its range partition within its file.
func (a *TraceAffinity) bucketOf(page model.PageID) int {
	pages := a.filePages[page.File]
	if pages <= 0 || page.Page < 0 {
		return 0
	}
	b := int(int64(page.Page) * int64(a.buckets) / int64(pages))
	if b >= a.buckets {
		b = a.buckets - 1
	}
	return b
}

// Route assigns a transaction to the node of its type.
func (a *TraceAffinity) Route(t *model.Txn) int {
	if a.nodes == 1 || t.Type >= len(a.typeToNode) {
		return 0
	}
	n := a.typeToNode[t.Type]
	if n < 0 {
		return 0
	}
	return n
}

// GLA returns the lock authority for a page.
func (a *TraceAffinity) GLA(page model.PageID) int {
	if a.nodes == 1 {
		return 0
	}
	units, ok := a.unitToNode[page.File]
	if !ok {
		return 0
	}
	return units[a.bucketOf(page)]
}
