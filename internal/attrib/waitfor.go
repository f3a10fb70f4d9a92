package attrib

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// WaitEdge is one wait-for relation: transaction Waiter is blocked on
// a lock held (or queued ahead) by transaction Holder. Identities are
// opaque strings ("node/txid") so the analysis does not depend on the
// lock manager's types.
type WaitEdge struct {
	Waiter string
	Holder string
}

// Blocker is one transaction ranked by how many distinct waiters it
// blocks directly.
type Blocker struct {
	Holder  string
	Waiters int
}

// WaitForReport summarizes one snapshot of the wait-for graph.
type WaitForReport struct {
	Edges   int
	Waiters int // distinct blocked transactions
	// TopBlockers ranks holders by direct-waiter in-degree,
	// descending; ties break by name.
	TopBlockers []Blocker
	// LongestChain is a maximal waiter -> holder -> ... dependency
	// chain (each element waits on the next). Cycles — deadlocks —
	// are cut, not followed.
	LongestChain []string
	// Convoy reports whether any single holder directly blocks at
	// least ConvoyThreshold waiters: the classic lock-convoy
	// signature.
	Convoy bool
}

// ConvoyThreshold is the direct-waiter in-degree at which a blocker is
// flagged as a convoy head.
const ConvoyThreshold = 4

// AnalyzeWaitFor reduces a wait-for edge snapshot to blockers, the
// longest dependency chain and convoy detection. Output is fully
// deterministic: all rankings sort with name tie-breaks.
func AnalyzeWaitFor(edges []WaitEdge, topN int) WaitForReport {
	rep := WaitForReport{Edges: len(edges)}
	if len(edges) == 0 {
		return rep
	}
	waiters := map[string]bool{}
	blockedBy := map[string][]string{} // waiter -> holders (deduped)
	degree := map[string]int{}         // holder -> distinct waiters
	seen := map[WaitEdge]bool{}
	for _, e := range edges {
		if e.Waiter == e.Holder || seen[e] {
			continue
		}
		seen[e] = true
		waiters[e.Waiter] = true
		blockedBy[e.Waiter] = append(blockedBy[e.Waiter], e.Holder)
		degree[e.Holder]++
	}
	rep.Waiters = len(waiters)

	for h, n := range degree {
		rep.TopBlockers = append(rep.TopBlockers, Blocker{Holder: h, Waiters: n})
		if n >= ConvoyThreshold {
			rep.Convoy = true
		}
	}
	sort.Slice(rep.TopBlockers, func(i, j int) bool {
		a, b := rep.TopBlockers[i], rep.TopBlockers[j]
		if a.Waiters != b.Waiters {
			return a.Waiters > b.Waiters
		}
		return a.Holder < b.Holder
	})
	if topN > 0 && len(rep.TopBlockers) > topN {
		rep.TopBlockers = rep.TopBlockers[:topN]
	}

	// Longest chain by memoized depth-first search from every waiter.
	// Hot-page queues make the wait-for graph dense (waiter i blocks
	// on everything queued ahead), where enumerating simple paths is
	// exponential; memoizing the longest suffix per node keeps this
	// O(V+E). Cycles — deadlocks — are cut, not followed; with cycles
	// present the memoized answer is a deterministic approximation,
	// which is fine for a diagnostic. Neighbour lists and start nodes
	// are sorted, so ties always resolve the same way.
	for _, sl := range blockedBy {
		sort.Strings(sl)
	}
	starts := make([]string, 0, len(blockedBy))
	for w := range blockedBy {
		starts = append(starts, w)
	}
	sort.Strings(starts)
	memo := map[string][]string{}
	onPath := map[string]bool{}
	var dfs func(node string) []string
	dfs = func(node string) []string {
		if c, ok := memo[node]; ok {
			return c
		}
		onPath[node] = true
		var best []string
		for _, next := range blockedBy[node] {
			if onPath[next] {
				continue // deadlock cycle: cut
			}
			if c := dfs(next); len(c) > len(best) {
				best = c
			}
		}
		onPath[node] = false
		chain := append([]string{node}, best...)
		memo[node] = chain
		return chain
	}
	var best []string
	for _, w := range starts {
		if c := dfs(w); len(c) > len(best) {
			best = c
		}
	}
	rep.LongestChain = best
	return rep
}

// EncodeArg renders the report as a trace-instant argument in a fixed
// field order.
func (rep WaitForReport) EncodeArg() string {
	var b strings.Builder
	fmt.Fprintf(&b, "edges=%d;waiters=%d;convoy=%t", rep.Edges, rep.Waiters, rep.Convoy)
	if len(rep.TopBlockers) > 0 {
		b.WriteString(";top=")
		for i, bl := range rep.TopBlockers {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%d", bl.Holder, bl.Waiters)
		}
	}
	if len(rep.LongestChain) > 0 {
		b.WriteString(";chain=")
		b.WriteString(strings.Join(rep.LongestChain, ">"))
	}
	return b.String()
}

// DecodeWaitFor parses an EncodeArg string back into a report. Unknown,
// missing and malformed fields are errors; top and chain are optional.
func DecodeWaitFor(s string) (WaitForReport, error) {
	var rep WaitForReport
	err := decodeFields(s, map[string]func(string) error{
		"edges":   intTo(&rep.Edges),
		"waiters": intTo(&rep.Waiters),
		"convoy": func(v string) (err error) {
			rep.Convoy, err = strconv.ParseBool(v)
			return err
		},
		"top": func(v string) error {
			for _, e := range strings.Split(v, ",") {
				i := strings.LastIndexByte(e, ':')
				if i < 0 {
					return errors.New("blocker without ':'")
				}
				n, err := strconv.Atoi(e[i+1:])
				if err != nil {
					return err
				}
				rep.TopBlockers = append(rep.TopBlockers, Blocker{Holder: e[:i], Waiters: n})
			}
			return nil
		},
		"chain": func(v string) error { rep.LongestChain = strings.Split(v, ">"); return nil },
	}, "edges", "waiters", "convoy")
	return rep, err
}
