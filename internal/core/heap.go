package core

// Heap is an indexed binary min-heap ordered by (key, id). Each element
// records its own position through the slot accessor, so Remove deletes
// a member directly, in O(log n), with no search and no tombstones. The
// cache keeps two of them over the same entries — eviction order and
// expiry order, one slot field each — and a what-if ghost keeps one
// over its metadata entries. A Heap is not safe for concurrent use.
type Heap[E any] struct {
	items []heapItem[E]
	// slot returns where e keeps its position in THIS heap, stored as
	// index+1 so the zero value means "not a member".
	slot func(e E) *int
	// examined counts the candidates Victim has rescored; the scaling
	// guard in the tests reads it to catch a regression to O(n).
	examined uint64
}

type heapItem[E any] struct {
	key Score
	id  uint64
	e   E
}

func (a heapItem[E]) less(b heapItem[E]) bool {
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

// NewHeap returns an empty heap whose members keep their position at
// slot(e).
func NewHeap[E any](slot func(e E) *int) Heap[E] { return Heap[E]{slot: slot} }

// Len returns the number of members.
func (h *Heap[E]) Len() int { return len(h.items) }

// Push adds e, which must not already be a member.
func (h *Heap[E]) Push(e E, key Score, id uint64) {
	h.items = append(h.items, heapItem[E]{})
	h.up(len(h.items)-1, heapItem[E]{key, id, e})
}

// Remove deletes e; it does nothing if e is not a member.
func (h *Heap[E]) Remove(e E) {
	p := h.slot(e)
	i := *p - 1
	if i < 0 {
		return
	}
	*p = 0
	n := len(h.items) - 1
	last := h.items[n]
	h.items[n] = heapItem[E]{} // drop the element reference
	h.items = h.items[:n]
	if i == n {
		return
	}
	if i > 0 && last.less(h.items[(i-1)/2]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// Min returns the member with the smallest (key, id) and its key. The
// heap must be non-empty.
func (h *Heap[E]) Min() (E, Score) { return h.items[0].e, h.items[0].key }

// At returns the member at array position i, 0 <= i < Len(); positions
// carry no order beyond the heap property.
func (h *Heap[E]) At(i int) E { return h.items[i].e }

// rekeyMin replaces the minimum's key with a larger one and restores
// the order.
func (h *Heap[E]) rekeyMin(key Score) {
	it := h.items[0]
	it.key = key
	h.down(0, it)
}

func (h *Heap[E]) place(i int, it heapItem[E]) {
	h.items[i] = it
	*h.slot(it.e) = i + 1
}

// up sifts it from the hole at i towards the root.
func (h *Heap[E]) up(i int, it heapItem[E]) {
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(h.items[parent]) {
			break
		}
		h.place(i, h.items[parent])
		i = parent
	}
	h.place(i, it)
}

// down sifts it from the hole at i towards the leaves.
func (h *Heap[E]) down(i int, it heapItem[E]) {
	n := len(h.items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.items[r].less(h.items[child]) {
			child = r
		}
		if !h.items[child].less(it) {
			break
		}
		h.place(i, h.items[child])
		i = child
	}
	h.place(i, it)
}
