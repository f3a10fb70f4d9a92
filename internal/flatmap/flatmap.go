// Package flatmap is a hash map over one flat array of entries: open
// addressing with linear probing, at most three quarters full, and
// deletion by backward shift, so no tombstones build up. A lookup reads
// one entry where a Go map walks its header, directory, table and
// group, which makes it the map for the simulator's per-reference
// lookups: the page directory's index, a transaction's locks and a
// buffer pool's frames. A map hashes its keys with the function it is
// made with, and the zero value of V stands for an absent key.
package flatmap

// Map maps keys to non-zero values. Make one with Make: the zero Map
// has no hash function.
type Map[K, V comparable] struct {
	ents []entry[K, V]
	n    int
	hash func(K) uint64
}

type entry[K, V comparable] struct {
	key K
	val V
}

// Make returns an empty map hashing keys with hash, sized for n keys.
func Make[K, V comparable](hash func(K) uint64, n int) Map[K, V] {
	m := Map[K, V]{hash: hash}
	m.Reset(n)
	return m
}

// Int32 is the hash of int32 keys.
func Int32(k int32) uint64 { return uint64(uint32(k)) }

// home returns k's preferred entry index.
func (m *Map[K, V]) home(k K) int {
	return int((m.hash(k)*0x9e3779b97f4a7c15)>>32) & (len(m.ents) - 1)
}

// find returns the index of k's entry, or of the empty entry where it
// belongs.
func (m *Map[K, V]) find(k K) int {
	var zero V
	mask := len(m.ents) - 1
	i := m.home(k)
	for m.ents[i].val != zero && m.ents[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// Len returns the number of keys.
func (m *Map[K, V]) Len() int { return m.n }

// Get returns k's value, the zero value when k is absent.
func (m *Map[K, V]) Get(k K) V {
	if m.n == 0 {
		var zero V
		return zero
	}
	return m.ents[m.find(k)].val
}

// Put sets k's value; the zero value deletes k.
func (m *Map[K, V]) Put(k K, v V) {
	var zero V
	if v == zero {
		m.Delete(k)
		return
	}
	if 4*(m.n+1) > 3*len(m.ents) {
		m.grow()
	}
	e := &m.ents[m.find(k)]
	if e.val == zero {
		e.key = k
		m.n++
	}
	e.val = v
}

// Delete removes k, closing the gap by moving later entries of its
// probe run back.
func (m *Map[K, V]) Delete(k K) {
	var zero V
	if m.n == 0 {
		return
	}
	i := m.find(k)
	if m.ents[i].val == zero {
		return
	}
	mask := len(m.ents) - 1
	for j := (i + 1) & mask; m.ents[j].val != zero; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically after i.
		if (j-m.home(m.ents[j].key))&mask >= (j-i)&mask {
			m.ents[i] = m.ents[j]
			i = j
		}
	}
	m.ents[i] = entry[K, V]{}
	m.n--
}

// grow doubles the entry array.
func (m *Map[K, V]) grow() {
	old := m.ents
	m.ents = make([]entry[K, V], max(2*len(old), 8))
	var zero V
	for _, e := range old {
		if e.val != zero {
			m.ents[m.find(e.key)] = e
		}
	}
}

// Reset empties the map, sized for n keys.
func (m *Map[K, V]) Reset(n int) {
	size := 8
	for 3*size < 4*n {
		size *= 2
	}
	if size > len(m.ents) {
		m.ents = make([]entry[K, V], size)
	} else {
		clear(m.ents)
	}
	m.n = 0
}

// AppendKeys appends the keys to buf in entry order, which depends on
// the hash: callers that need a stable order sort them.
func (m *Map[K, V]) AppendKeys(buf []K) []K {
	var zero V
	for _, e := range m.ents {
		if e.val != zero {
			buf = append(buf, e.key)
		}
	}
	return buf
}
