package sim

import (
	"math"
	"math/bits"
	"slices"
)

// calendar is the event queue: a ladder queue (Tang, Goh & Thng, ACM
// TOMACS 2005) with O(1) amortized insert and pop-min and no width
// parameter to tune.
//
// It keeps pending events in three tiers, ordered by time:
//
//   - Top: an unsorted list of far-future events (at >= topStart), with
//     their minimum and maximum tracked.
//   - Rungs: rungs[0] is built from Top with about one event per
//     bucket; each bucket is an unsorted list over a fixed interval. A
//     bucket holding more than spawnThreshold events when the dequeue
//     reaches it spawns a finer child rung over its interval, so each
//     rung covers exactly one bucket of the rung above it. At most
//     maxRungs rungs exist.
//   - Bottom: a short run sorted by (at, seq), descending so pop takes
//     the last element. It is refilled one bucket at a time from the
//     lowest rung, or straight from Top when Top is small.
//
// An insert goes to Top, to the highest rung whose current bucket
// starts at or before it, or into Bottom by sorted insert. Each event
// moves down at most once per tier, so insert and pop are O(1)
// amortized whatever the spread of the schedule: a dense near-term
// band and tens of thousands of far-future wake-ups land in different
// rungs instead of sharing a bucket's sorted slice.
//
// Allocation: buckets are intrusive singly linked lists through
// event.next, the rung bucket arrays and the Bottom slice are kept at
// their high-water marks, and sorting uses a non-capturing comparator,
// so the steady state allocates nothing.
//
// Determinism: every event has a globally unique seq, so the strict
// total order (at, seq) has exactly one sorted sequence. Any correct
// pop-min therefore yields byte-identical dispatch order with the
// legacy heap: rung geometry, spawns and rebuilds change only when work
// happens, never its order. The property test in calendar_test.go
// checks this against a reference heap on randomized schedules.
//
// Invariants:
//   - every Top event has at >= topStart, and every rung or Bottom
//     event has at < topStart;
//   - rungs[0] ends at topStart, and rungs[r+1] ends where the current
//     bucket of rungs[r] starts; the buckets of a rung before its
//     cursor are empty;
//   - every Bottom event is earlier than the current bucket start of
//     the lowest rung (topStart when there is none).
type calendar struct {
	top      *event // unsorted far-future list
	nTop     int
	topMin   Time
	topMax   Time
	topStart Time // Top holds exactly the events with at >= topStart

	rungs  [maxRungs]rung // rungs[:nRungs] are live; the rest keep their arrays
	nRungs int

	bottom     []*event // sorted descending by (at, seq); pop takes the last
	bottomBase int      // Bottom's size after its last refill

	n int // pending events across all tiers

	// Work counters (cumulative): Top emptied into the ladder, rungs
	// spawned from a crowded bucket or an overgrown Bottom, and events
	// moved by either.
	rebuilds int64
	spawns   int64
	moved    int64
}

// rung is one level of the ladder: len(buckets) buckets of width
// width starting at start, dequeued from bucket cur onward.
type rung struct {
	buckets []*event // list heads; buckets before cur are nil
	start   Time
	width   Time // >= 1
	cur     int
	count   int // events in the rung
}

const (
	// spawnThreshold is the bucket size above which a reached bucket
	// spawns a child rung instead of being sorted into Bottom, and the
	// Top size above which Top becomes a rung rather than going
	// straight to Bottom.
	spawnThreshold = 50
	// maxRungs caps the ladder's depth; past it, a crowded bucket is
	// sorted into Bottom whole.
	maxRungs = 8
	maxTime  = Time(math.MaxInt64)
)

// evLess orders events by (at, seq).
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// evDesc is Bottom's sort order: descending (at, seq).
func evDesc(a, b *event) int {
	if a.at != b.at {
		if a.at > b.at {
			return -1
		}
		return 1
	}
	if a.seq > b.seq {
		return -1
	}
	return 1
}

// total reports the number of pending events.
func (c *calendar) total() int { return c.n }

// curStart is the start of rung r's current bucket: every rung r event
// is at or after it.
func (r *rung) curStart() Time { return r.start + Time(r.cur)*r.width }

// add links ev into its bucket of the rung. at must lie in the rung's
// interval at or after its current bucket; the index is clamped only
// for a rung whose end saturated at maxTime.
func (r *rung) add(ev *event) {
	i := int((ev.at - r.start) / r.width)
	if i >= len(r.buckets) {
		i = len(r.buckets) - 1
	}
	ev.next = r.buckets[i]
	r.buckets[i] = ev
	r.count++
}

// addList adds every event of the list at head to the rung.
func (r *rung) addList(head *event) {
	for ev := head; ev != nil; {
		next := ev.next
		r.add(ev)
		ev = next
	}
}

// insert adds ev to the queue.
func (c *calendar) insert(ev *event) {
	if c.n == 0 {
		// Empty: every rung is empty too, so start the ladder afresh
		// and let the next pop build it from Top.
		c.nRungs = 0
		c.topStart = 0
	}
	c.n++
	if ev.at >= c.topStart {
		if c.nTop == 0 || ev.at < c.topMin {
			c.topMin = ev.at
		}
		if c.nTop == 0 || ev.at > c.topMax {
			c.topMax = ev.at
		}
		ev.next = c.top
		c.top = ev
		c.nTop++
		return
	}
	for i := 0; i < c.nRungs; i++ {
		if r := &c.rungs[i]; ev.at >= r.curStart() {
			r.add(ev)
			return
		}
	}
	c.bottomInsert(ev)
	if n := len(c.bottom); n > 4*spawnThreshold && n > 2*c.bottomBase &&
		c.nRungs < maxRungs && c.bottom[0].at != c.bottom[n-1].at {
		c.bottomToRung()
	}
}

// bottomInsert places ev into Bottom, keeping it sorted descending.
// New events are usually the earliest, so the common case appends.
func (c *calendar) bottomInsert(ev *event) {
	n := len(c.bottom)
	if n == 0 || evLess(ev, c.bottom[n-1]) {
		c.bottom = append(c.bottom, ev)
		return
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if evLess(ev, c.bottom[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.bottom = append(c.bottom, nil)
	copy(c.bottom[lo+1:], c.bottom[lo:])
	c.bottom[lo] = ev
}

// bottomToRung turns an overgrown Bottom into a new lowest rung over
// [earliest Bottom event, current bucket start of the rung above), or
// up to topStart when there is no rung. Bottom qualifies only at twice
// the size of its last refill, so sorted inserts pay for every event
// this moves, and a bucket sorted whole into Bottom (one instant, or
// past maxRungs) is not turned back into a rung at once.
func (c *calendar) bottomToRung() {
	end := c.topStart
	if c.nRungs > 0 {
		end = c.rungs[c.nRungs-1].curStart()
	}
	n := len(c.bottom)
	r := c.newRung(c.bottom[n-1].at, end, n)
	for _, ev := range c.bottom {
		r.add(ev)
	}
	clear(c.bottom)
	c.bottom = c.bottom[:0]
	c.spawns++
	c.moved += int64(n)
}

// newRung makes rungs[nRungs] the lowest rung, covering [start, end)
// with about n buckets, and returns it. The bucket array is reused at
// its high-water mark; a drained rung's buckets are all nil.
func (c *calendar) newRung(start, end Time, n int) *rung {
	r := &c.rungs[c.nRungs]
	c.nRungs++
	span := end - start
	w := span / Time(n)
	if w*Time(n) < span {
		w++
	}
	if w < 1 {
		w = 1
	}
	nb := int(span / w)
	if Time(nb)*w < span || nb == 0 {
		nb++
	}
	if nb <= cap(r.buckets) {
		r.buckets = r.buckets[:nb]
	} else {
		// Round up, so a rung that outgrows its array seldom does so
		// again.
		r.buckets = make([]*event, nb, 1<<bits.Len(uint(nb)))
	}
	r.start, r.width, r.cur, r.count = start, w, 0, 0
	return r
}

// pop removes and returns the minimum (at, seq) event, or nil on an
// empty queue. When bounded, an event with at > limit stays queued and
// pop returns nil, leaving the pending set as it was.
func (c *calendar) pop(limit Time, bounded bool) *event {
	for {
		if n := len(c.bottom); n > 0 {
			ev := c.bottom[n-1]
			if bounded && ev.at > limit {
				return nil
			}
			c.bottom[n-1] = nil
			c.bottom = c.bottom[:n-1]
			c.n--
			return ev
		}
		if !c.refill(limit, bounded) {
			return nil
		}
	}
}

// refill moves the next bucket into the empty Bottom, spawning child
// rungs over crowded buckets on the way, and builds the ladder from
// Top when the rungs are drained. It reports false when the queue is
// empty or (bounded) every pending event is past limit; the pending
// set is then as it was, and Bottom still empty.
func (c *calendar) refill(limit Time, bounded bool) bool {
	for c.nRungs > 0 {
		r := &c.rungs[c.nRungs-1]
		if r.count == 0 {
			c.nRungs--
			continue
		}
		for r.buckets[r.cur] == nil {
			r.cur++
		}
		start := r.curStart()
		if bounded && start > limit {
			return false
		}
		head := r.buckets[r.cur]
		k := 0
		for ev := head; ev != nil && k <= spawnThreshold; ev = ev.next {
			k++
		}
		r.buckets[r.cur] = nil
		r.cur++
		if k > spawnThreshold && r.width > 1 && c.nRungs < maxRungs {
			k = 0
			for ev := head; ev != nil; ev = ev.next {
				k++
			}
			r.count -= k
			c.newRung(start, start+r.width, k).addList(head)
			c.spawns++
			c.moved += int64(k)
			continue
		}
		r.count -= c.listToBottom(head)
		return true
	}
	if c.nTop == 0 || bounded && c.topMin > limit {
		return false
	}
	c.rebuilds++
	c.moved += int64(c.nTop)
	head, n := c.top, c.nTop
	c.top, c.nTop = nil, 0
	end := c.topMax + 1
	if end < c.topMax {
		end = maxTime
	}
	c.topStart = end
	if n <= spawnThreshold {
		c.listToBottom(head)
		return true
	}
	c.newRung(c.topMin, end, n).addList(head)
	return true
}

// listToBottom sorts the list at head into the empty Bottom and
// returns its length.
func (c *calendar) listToBottom(head *event) int {
	for ev := head; ev != nil; ev = ev.next {
		c.bottom = append(c.bottom, ev)
	}
	n := len(c.bottom)
	if n > 1 {
		slices.SortFunc(c.bottom, evDesc)
	}
	c.bottomBase = n
	return n
}
