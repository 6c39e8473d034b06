package index

import (
	"math"
	"sync"
)

// scored is one candidate of a search: a distance (or estimate) and the
// slot that holds it. 16 bytes: the heaps a wide HNSW search sifts are
// made of these, and the id that breaks a distance tie is looked up only
// when there is one.
type scored struct {
	dist float64
	slot int32
}

// slotIDs names the entry in a slot. A heap asks only to break an exact
// distance tie.
type slotIDs interface{ idAt(slot int32) ID }

// distHeap is a binary heap of candidates in (dist, id) order: the
// closest at the root, or with max set the farthest. (dist, id) is a
// total order over the distinct entries of one search, so what a search
// pops, keeps and returns does not depend on the heap's layout, nor on
// which slots the entries happen to sit in.
type distHeap struct {
	items []scored
	ids   slotIDs
	max   bool
}

// less reports whether a sits nearer the root than b.
func (h *distHeap) less(a, b scored) bool {
	if a.dist != b.dist {
		return (a.dist < b.dist) != h.max
	}
	return h.tie(a.slot, b.slot)
}

// tie is less for two candidates at the same distance. It is a call of
// its own so that less, which sees a tie seldom, stays small enough to
// inline into the sifts.
func (h *distHeap) tie(a, b int32) bool {
	return (h.ids.idAt(a) < h.ids.idAt(b)) != h.max
}

func (h *distHeap) push(x scored) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(x, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = x
}

// pop removes and returns the root.
func (h *distHeap) pop() scored {
	root := h.items[0]
	last := len(h.items) - 1
	x := h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.replaceRoot(x)
	}
	return root
}

// replaceRoot overwrites the root with x and restores heap order: one
// sift instead of the two a push-then-pop of a full heap costs.
func (h *distHeap) replaceRoot(x scored) {
	items := h.items
	i := 0
	for {
		child := 2*i + 1
		if child >= len(items) {
			break
		}
		if r := child + 1; r < len(items) {
			// Which child to follow is a coin toss, as a branch it is
			// mispredicted half the time, and the compiler makes no
			// conditional move of an index the loop carries. Distinct
			// distances differ by a nonzero amount (an infinite one by an
			// infinite amount), so the sign bit of the difference picks
			// the child without a branch: an efs-512 probe ran ~17%
			// faster for it.
			a, b := items[r], items[child]
			if a.dist == b.dist {
				if h.tie(a.slot, b.slot) {
					child = r
				}
			} else {
				d := a.dist - b.dist
				if h.max {
					d = -d
				}
				child += int(math.Float64bits(d) >> 63)
			}
		}
		if !h.less(items[child], x) {
			break
		}
		items[i] = items[child]
		i = child
	}
	items[i] = x
}

// sorted empties a max-heap and returns its items closest first,
// heap-sorting them in place.
func (h *distHeap) sorted() []scored {
	all := h.items
	for last := len(all) - 1; last > 0; last-- {
		farthest, x := all[0], all[last]
		h.items = all[:last]
		h.replaceRoot(x)
		all[last] = farthest
	}
	h.items = all[:0]
	return all
}

// best empties a max-heap and returns its n closest items, closest
// first. Fewer than all of them are selected into spare, another
// max-heap, so taking one neighbour out of a 512-wide result pool costs
// a scan, not a drain and a sort.
func (h *distHeap) best(n int, spare *distHeap) []scored {
	if n >= len(h.items) {
		return h.sorted()
	}
	spare.items = spare.items[:0]
	for _, x := range h.items {
		if len(spare.items) < n {
			spare.push(x)
		} else if n > 0 && spare.less(spare.items[0], x) {
			spare.replaceRoot(x)
		}
	}
	h.items = h.items[:0]
	return spare.sorted()
}

// scratch is the working memory of one query, recycled through its
// index's scratchPool so that a search touches no allocator: HNSW uses
// the visited stamps and heaps (and HNSW-PQ the ADC table), IVF the cell
// ranking, both the candidate buffer their answer is assembled in.
type scratch struct {
	// visited[slot] == epoch marks a slot seen by the current layer
	// search. Starting a search bumps the epoch instead of clearing the
	// array, which is wiped only when the epoch wraps around.
	visited []uint32
	epoch   uint32
	cands   distHeap // frontier, closest first
	results distHeap // kept pool, farthest at the root
	top     distHeap // best()'s selection buffer
	cells   []cellDist
	found   []Neighbor
	adc     []float64 // HNSW-PQ's ADC table for the query
}

func newScratch() *scratch {
	return &scratch{results: distHeap{max: true}, top: distHeap{max: true}}
}

// begin readies the scratch for one layer search over a node table of
// the given slot capacity, whose slots ids names.
func (sc *scratch) begin(ids slotIDs, slots int) {
	sc.cands.ids, sc.results.ids, sc.top.ids = ids, ids, ids
	if len(sc.visited) < slots {
		sc.visited = make([]uint32, slots) // all zero: never a live epoch
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		sc.epoch = 1
	}
	sc.cands.items = sc.cands.items[:0]
	sc.results.items = sc.results.items[:0]
}

// scratchPool hands out scratch to concurrent readers. Queries run under
// the cache's read lock, many at once, so scratch can never be a plain
// field of the index; each costs one uint32 per slot plus its heaps, and
// the pool holds about as many as goroutines have searched at once.
type scratchPool struct{ pool sync.Pool }

func (p *scratchPool) get() *scratch {
	if sc, ok := p.pool.Get().(*scratch); ok {
		return sc
	}
	return newScratch()
}

func (p *scratchPool) put(sc *scratch) { p.pool.Put(sc) }

// cloneNeighbors copies an answer out of scratch into memory the caller
// may keep.
func cloneNeighbors(ns []Neighbor) []Neighbor {
	return append(make([]Neighbor, 0, len(ns)), ns...)
}
