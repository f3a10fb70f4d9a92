package sim

// FreeList is a LIFO of recycled records. Model code pools the records
// of its per-call callback chains on one (device chains, per-transaction
// state) and binds each record's chain steps as method values once, at
// creation, so a steady-state call allocates nothing. A record may go
// back on the list only when nothing can still refer to it: not a
// pending event, a lock queue or a message in flight.
type FreeList[T any] struct {
	items []*T
}

// Get pops a recycled record, or returns nil when the list is empty.
func (l *FreeList[T]) Get() *T {
	n := len(l.items)
	if n == 0 {
		return nil
	}
	r := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return r
}

// Put returns r to the list.
func (l *FreeList[T]) Put(r *T) { l.items = append(l.items, r) }
