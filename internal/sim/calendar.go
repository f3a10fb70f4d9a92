package sim

import (
	"math"
	"time"
)

// calendar is the event queue: a calendar/ladder queue with O(1)
// amortized insert and pop-min, replacing the former binary heap.
//
// Events inside the current window [start, start+width*len(buckets))
// are direct-indexed into fixed-width buckets; each bucket keeps its
// events sorted by (at, seq) with a consumed-prefix head index, so the
// common append-at-end insert (new events carry the largest seq for
// their timestamp) is O(1). Events beyond the window land in an
// unsorted overflow tier and are redistributed when the window rotates
// past them. The bucket count doubles when bucket occupancy exceeds 2x
// and shrinks when the total pending count (buckets plus overflow)
// falls below 1/8 of it, with the width re-derived from the mean event
// spacing, so both same-instant bursts and sparse far-future schedules
// stay O(1) amortized. Shrinking on the total, the count a rebuild is
// sized from, keeps a schedule with a few far-future events in
// overflow from rebuilding the array at its own size over and over.
//
// Allocation: the steady state allocates nothing. A resize keeps the
// bucket array (reslicing it when it shrinks) and every bucket's
// backing slice, and gathers the live events into one reused scratch
// slice; a full bucket with a consumed prefix is compacted in place
// before it is grown. Only a new high-water mark (more buckets, or more
// events in one bucket or in overflow than ever before) allocates.
//
// Determinism: every event has a globally unique seq, so the strict
// total order (at, seq) has exactly one sorted sequence. Any correct
// pop-min therefore yields byte-identical dispatch order with the
// legacy heap — bucket geometry, resizes and rotations cannot change
// the order, only the constant factors. The property test in
// calendar_test.go checks this against a reference heap on randomized
// schedules.
//
// Invariants:
//   - all bucket events live in buckets[cur:]; inserts that map below
//     cur (possible after the cursor advanced over empty buckets, or
//     after a rotation re-anchored start above the clock) are clamped
//     into bucket cur, which stays sorted, so ordering holds;
//   - every bucket event has at < horizon and every overflow event has
//     at >= horizon, at every horizon change;
//   - overMin tracks the minimum overflow timestamp, so rotation can
//     re-anchor the window directly at the next populated region.
type calendar struct {
	buckets []calBucket
	width   Time // bucket width, >= 1ns
	start   Time // window start of buckets[0]
	cur     int  // dispatch cursor: first possibly non-empty bucket
	count   int  // events currently in buckets

	over    []*event // far-future tier: at >= horizon, unsorted
	overMin Time     // min at in over; undefined when over is empty

	scratch []*event // resize's gathering buffer, empty between resizes
	resizes int      // rebuilds so far (tests bound the thrash)
}

// calBucket is one sorted bucket with a consumed prefix.
type calBucket struct {
	evs  []*event
	head int
}

const (
	calMinBuckets   = 16
	calInitialWidth = Time(time.Millisecond)
	maxTime         = Time(math.MaxInt64)
)

// evLess orders events by (at, seq).
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// total reports the number of pending events across both tiers.
func (c *calendar) total() int { return c.count + len(c.over) }

// horizon returns the exclusive upper bound of the bucket window,
// saturating on overflow.
func (c *calendar) horizon() Time {
	h := c.start + c.width*Time(len(c.buckets))
	if h < c.start {
		return maxTime
	}
	return h
}

// insert adds ev to the queue, growing the bucket array when occupancy
// passes 2x.
func (c *calendar) insert(ev *event) {
	if c.buckets == nil {
		c.buckets = make([]calBucket, calMinBuckets)
		c.width = calInitialWidth
		c.start = ev.at - ev.at%c.width
	} else if c.count == 0 && len(c.over) == 0 {
		// Queue drained: re-anchor the window at the new event so a
		// long idle gap does not force a rotation on the next pop.
		c.start = ev.at - ev.at%c.width
		c.cur = 0
	}
	c.place(ev)
	if c.count > 2*len(c.buckets) {
		c.resize()
	}
}

// place routes ev to its bucket or the overflow tier, without resize
// checks (resize and rotation reuse it while rebuilding).
func (c *calendar) place(ev *event) {
	if ev.at >= c.horizon() {
		if len(c.over) == 0 || ev.at < c.overMin {
			c.overMin = ev.at
		}
		c.over = append(c.over, ev)
		return
	}
	idx := int((ev.at - c.start) / c.width)
	if idx < c.cur {
		// Clamp events mapping below the cursor (or below start) into
		// the cursor bucket; it is sorted, so order is preserved.
		idx = c.cur
	}
	c.bucketInsert(idx, ev)
	c.count++
}

// bucketInsert places ev into buckets[idx] keeping (at, seq) order.
// New events almost always append at the end: seq grows monotonically,
// so only an event with a strictly larger at already in the bucket
// forces a mid-slice insert.
func (c *calendar) bucketInsert(idx int, ev *event) {
	b := &c.buckets[idx]
	if b.head > 0 && len(b.evs) == cap(b.evs) {
		// Full, with a consumed prefix: slide the live events down
		// instead of growing the slice.
		live := copy(b.evs, b.evs[b.head:])
		clear(b.evs[live:])
		b.evs = b.evs[:live]
		b.head = 0
	}
	n := len(b.evs)
	if n == b.head || evLess(b.evs[n-1], ev) {
		b.evs = append(b.evs, ev)
		return
	}
	lo, hi := b.head, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if evLess(b.evs[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b.evs = append(b.evs, nil)
	copy(b.evs[lo+1:], b.evs[lo:])
	b.evs[lo] = ev
}

// pop removes and returns the minimum (at, seq) event. When bounded,
// events with at > limit stay queued and pop returns nil. Returns nil
// on an empty queue.
func (c *calendar) pop(limit Time, bounded bool) *event {
	for c.count == 0 {
		if len(c.over) == 0 {
			return nil
		}
		if bounded && c.overMin > limit {
			return nil
		}
		c.rotate()
	}
	for c.buckets[c.cur].head == len(c.buckets[c.cur].evs) {
		c.cur++
	}
	b := &c.buckets[c.cur]
	ev := b.evs[b.head]
	if bounded && ev.at > limit {
		return nil
	}
	b.evs[b.head] = nil
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
	}
	c.count--
	if len(c.buckets) > calMinBuckets && 8*c.total() < len(c.buckets) {
		c.resize()
	}
	return ev
}

// rotate re-anchors the window at the earliest overflow event and
// redistributes the overflow tier. Called only when the buckets are
// empty; the event at overMin always lands in bucket 0, so rotation
// makes progress.
func (c *calendar) rotate() {
	c.start = c.overMin - c.overMin%c.width
	c.cur = 0
	horizon := c.horizon()
	kept := c.over[:0]
	newMin := maxTime
	for _, ev := range c.over {
		if ev.at < horizon {
			c.bucketInsert(int((ev.at-c.start)/c.width), ev)
			c.count++
		} else {
			if ev.at < newMin {
				newMin = ev.at
			}
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(c.over); i++ {
		c.over[i] = nil
	}
	c.over = kept
	c.overMin = newMin
}

// resize rebuilds the bucket array sized to the live event count, with
// the width re-derived from the mean event spacing (clamped so the
// horizon cannot overflow). Doubling up and shrinking at 1/8 keeps the
// rebuild cost O(1) amortized per operation. The bucket array and the
// bucket slices are reused; only growing past the array's capacity
// allocates a larger one, which inherits the old buckets' slices.
func (c *calendar) resize() {
	c.resizes++
	evs := c.scratch[:0]
	for i := range c.buckets {
		b := &c.buckets[i]
		if i >= c.cur {
			evs = append(evs, b.evs[b.head:]...)
		}
		clear(b.evs)
		b.evs = b.evs[:0]
		b.head = 0
	}
	evs = append(evs, c.over...)
	clear(c.over)
	c.over = c.over[:0]
	n := pow2ceil(len(evs))
	if n < calMinBuckets {
		n = calMinBuckets
	}
	minAt, maxAt := maxTime, Time(0)
	for _, ev := range evs {
		if ev.at < minAt {
			minAt = ev.at
		}
		if ev.at > maxAt {
			maxAt = ev.at
		}
	}
	width := c.width
	if len(evs) > 0 {
		// Twice the mean gap: half-full buckets on a uniform spread.
		width = 2 * (maxAt - minAt) / Time(len(evs))
	}
	if lim := (maxTime - minAt) / Time(n); width > lim {
		width = lim
	}
	if width < 1 {
		width = 1
	}
	if n <= cap(c.buckets) {
		c.buckets = c.buckets[:n]
	} else {
		grown := make([]calBucket, n)
		copy(grown, c.buckets[:cap(c.buckets)])
		c.buckets = grown
	}
	c.width = width
	c.start = minAt - minAt%width
	c.cur = 0
	c.count = 0
	c.overMin = maxTime
	if len(evs) == 0 {
		c.start = 0
	}
	for _, ev := range evs {
		c.place(ev)
	}
	clear(evs)
	c.scratch = evs[:0]
}

// pow2ceil returns the smallest power of two >= n.
func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
