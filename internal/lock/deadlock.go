package lock

// Detector finds waits-for cycles across one or more lock tables. The
// GEM protocol uses a single global table; primary copy locking spreads
// locks over per-GLA tables, where global deadlocks span tables. The
// simulator runs detection eagerly on every block, which is equivalent
// to (and cheaper than) the periodic schemes of real systems.
type Detector struct {
	tables []*Table
	cycles int64

	// Search scratch, reused so that a search allocates nothing: the
	// blocker lists of every frame pushed so far, the DFS stack, and
	// by owner handle the search that last visited the owner (the
	// current one is stamp).
	edges   []Owner
	stack   []dfsFrame
	visited []uint32
	stamp   uint32
}

// dfsFrame is one owner on the search path; edges[next:end] are the
// blockers it still has to explore.
type dfsFrame struct {
	owner     Owner
	next, end int
}

// NewDetector creates a detector over the given tables.
func NewDetector(tables ...*Table) *Detector {
	return &Detector{tables: tables}
}

// Cycles returns the number of deadlocks found.
func (d *Detector) Cycles() int64 { return d.cycles }

// appendBlockers appends the owners o waits for across all tables.
func (d *Detector) appendBlockers(dst []Owner, o Owner) []Owner {
	for _, t := range d.tables {
		if w := t.Waiting(o); w != nil {
			dst = t.appendBlockers(dst, w)
		}
	}
	return dst
}

// FindCycle performs a depth-first search of the waits-for graph from
// start and returns the owners on a cycle through start, or nil when
// start is not deadlocked. An owner already visited is not expanded
// again: a cycle through it that does not pass start is detected by
// its own members.
func (d *Detector) FindCycle(start Owner) []Owner {
	if d.stamp++; d.stamp == 0 {
		clear(d.visited)
		d.stamp = 1
	}
	d.visit(start)
	d.edges = d.appendBlockers(d.edges[:0], start)
	d.stack = append(d.stack[:0], dfsFrame{owner: start, end: len(d.edges)})
	for len(d.stack) > 0 {
		top := &d.stack[len(d.stack)-1]
		if top.next == top.end {
			d.stack = d.stack[:len(d.stack)-1]
			continue
		}
		n := d.edges[top.next]
		top.next++
		if n == start {
			// Cycle found: the current path.
			cycle := make([]Owner, len(d.stack))
			for i, f := range d.stack {
				cycle[i] = f.owner
			}
			d.cycles++
			return cycle
		}
		if d.visit(n) {
			lo := len(d.edges)
			d.edges = d.appendBlockers(d.edges, n)
			d.stack = append(d.stack, dfsFrame{owner: n, next: lo, end: len(d.edges)})
		}
	}
	return nil
}

// visit marks o visited by the current search and reports whether it
// was not yet.
func (d *Detector) visit(o Owner) bool {
	d.visited = grow(d.visited, o.h)
	if d.visited[o.h] == d.stamp {
		return false
	}
	d.visited[o.h] = d.stamp
	return true
}

// Victim selects the transaction to abort from a cycle: the youngest
// (largest TxID).
func Victim(cycle []Owner) Owner {
	v := cycle[0]
	for _, o := range cycle[1:] {
		if o.Tx > v.Tx {
			v = o
		}
	}
	return v
}

// SetTable replaces the table at index i, used when a failed node's
// lock table partition is rebuilt at a new home during failover.
func (d *Detector) SetTable(i int, t *Table) { d.tables[i] = t }
