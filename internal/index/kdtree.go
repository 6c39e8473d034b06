package index

import (
	"math"
	"sync"

	"repro/internal/vec"
)

// KDTree is a k-dimensional tree supporting exact nearest-neighbour
// search in O(log N) average time for low-to-moderate dimensions
// (paper §3.6: "KD-trees ... support spatial indexing and efficient
// nearest neighbor and range searches"). Pruning uses per-axis bounds
// and is exact for the Euclidean, Manhattan and Chebyshev metrics; for
// other metrics the tree degrades to a full traversal and stays correct.
//
// Deletions (and the old node of a replaced id) are tombstoned and the
// tree is rebuilt, balanced, when more than a quarter of its nodes are
// dead, giving amortized O(log N) removal. A search walks tombstones
// like live nodes, so the fraction bounds what a query pays for them.
type KDTree struct {
	probeCounter
	metric   vec.Metric
	prunable bool
	euclid   bool // metric is Euclidean: Nearest searches in squared space
	root     *kdNode
	size     int // live entries
	dead     int // tombstoned entries
	maxDim   int // longest key ever inserted: every node's axis is below it
	byID     map[ID]*kdNode
}

type kdNode struct {
	id          ID
	key         vec.Vector
	axis        int
	left, right *kdNode
	deleted     bool
}

// NewKDTree returns an empty KD-tree using metric m.
func NewKDTree(m vec.Metric) *KDTree {
	var prunable, euclid bool
	switch m.(type) {
	case vec.EuclideanMetric:
		prunable, euclid = true, true
	case vec.ManhattanMetric, vec.ChebyshevMetric:
		prunable = true
	}
	return &KDTree{metric: m, prunable: prunable, euclid: euclid, byID: make(map[ID]*kdNode)}
}

// Insert implements Index. Empty keys are rejected: the descent below
// picks the next split axis as (axis+1) mod len(key), which would
// divide by zero for a zero-dimension key.
func (t *KDTree) Insert(id ID, key vec.Vector) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if old, ok := t.byID[id]; ok && !old.deleted {
		t.tombstone(old)
	}
	key = key.Clone()
	if len(key) > t.maxDim {
		t.maxDim = len(key)
	}
	n := &kdNode{id: id, key: key}
	t.byID[id] = n
	t.size++
	if t.root == nil {
		t.root = n
		return nil
	}
	cur := t.root
	for {
		n.axis = (cur.axis + 1) % len(key)
		if axisLess(key, cur.key, cur.axis) {
			if cur.left == nil {
				cur.left = n
				return nil
			}
			cur = cur.left
		} else {
			if cur.right == nil {
				cur.right = n
				return nil
			}
			cur = cur.right
		}
	}
}

// axisLess compares along an axis, tolerating keys of differing
// dimensionality (shorter keys read as 0 on missing axes).
func axisLess(a, b vec.Vector, axis int) bool {
	av, bv := 0.0, 0.0
	if axis < len(a) {
		av = a[axis]
	}
	if axis < len(b) {
		bv = b[axis]
	}
	return av < bv
}

// Remove implements Index.
func (t *KDTree) Remove(id ID) {
	n, ok := t.byID[id]
	if !ok || n.deleted {
		return
	}
	delete(t.byID, id)
	t.tombstone(n)
}

// tombstone marks a live node dead and compacts the tree once more than
// a quarter of its nodes are. The fraction is the knee of {1, 1/2, 1/4,
// 1/8} on a replay of the write-evict stream (CHANGES.md, PR 23): a
// rebuild costs O(N log N) and runs once per N/3 removals, so removal
// stays amortized O(log N), while no miss walks a tree that is up to
// half dead and mostly grown by inserts.
func (t *KDTree) tombstone(n *kdNode) {
	n.deleted = true
	t.size--
	t.dead++
	if 3*t.dead > t.size {
		t.rebuild()
	}
}

func (t *KDTree) rebuild() {
	nodes := make([]*kdNode, 0, t.size)
	var collect func(n *kdNode)
	collect = func(n *kdNode) {
		if n == nil {
			return
		}
		collect(n.left)
		if !n.deleted {
			nodes = append(nodes, n)
		}
		collect(n.right)
	}
	collect(t.root)
	t.root = buildBalanced(nodes, 0)
	t.dead = 0
}

func buildBalanced(nodes []*kdNode, axis int) *kdNode {
	if len(nodes) == 0 {
		return nil
	}
	// The median by axis, by quickselect. Keys equal to the median on
	// this axis may land on either side of it; the searches only assume
	// left <= split <= right.
	mid := len(nodes) / 2
	quickSelect(nodes, mid, axis)
	n := nodes[mid]
	dim := len(n.key)
	next := 0
	if dim > 0 {
		next = (axis + 1) % dim
	}
	n.axis = axis
	n.left = buildBalanced(nodes[:mid], next)
	n.right = buildBalanced(nodes[mid+1:], next)
	return n
}

func quickSelect(nodes []*kdNode, k, axis int) {
	lo, hi := 0, len(nodes)-1
	for lo < hi {
		p := partition(nodes, lo, hi, axis)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partition(nodes []*kdNode, lo, hi, axis int) int {
	pivot := nodes[hi].key
	i := lo
	for j := lo; j < hi; j++ {
		if axisLess(nodes[j].key, pivot, axis) {
			nodes[i], nodes[j] = nodes[j], nodes[i]
			i++
		}
	}
	nodes[i], nodes[hi] = nodes[hi], nodes[i]
	return i
}

// Nearest implements Index. It is a dedicated allocation-free search:
// Nearest runs on every cache lookup (and on a put whose miss left no
// usable memo, see core), and going through KNearest(1) would allocate a
// candidate heap and result slice per call — enough garbage at high
// concurrency that GC mark assists, a global bottleneck, dominate the
// runtime.
func (t *KDTree) Nearest(key vec.Vector) (Neighbor, bool) {
	n, _, ok := t.NearestProbed(key)
	return n, ok
}

// NearestProbed implements ProbedSearcher: the probe count is the
// number of tree nodes visited (pruned subtrees excluded).
func (t *KDTree) NearestProbed(key vec.Vector) (Neighbor, int, bool) {
	if t.size == 0 {
		return Neighbor{}, 0, false
	}
	best := Neighbor{Dist: math.Inf(1)}
	visited := 0
	if t.euclid {
		// For the default Euclidean metric, search in squared-distance
		// space: ordering is preserved (sqrt is monotone), so the same
		// node wins, but the square root is taken once at the end
		// instead of at every visited node, and the concrete distance
		// routine is called directly instead of through the Metric
		// interface.
		//
		// The offsets are a parameter of walk, not a field of q: q.best
		// is returned, and escape analysis would send anything else
		// stored in q to the heap with it.
		q := sqQuery{key: key, best: best}
		if t.maxDim <= kdStackDims {
			var off [kdStackDims]float64
			q.walk(t.root, off[:t.maxDim], 0)
		} else {
			pooled := kdOffsets.Get().(*[]float64)
			if cap(*pooled) < t.maxDim {
				*pooled = make([]float64, t.maxDim)
			}
			off := (*pooled)[:t.maxDim]
			clear(off)
			q.walk(t.root, off, 0)
			kdOffsets.Put(pooled)
		}
		best, visited = q.best, q.visited
		best.Dist = math.Sqrt(best.Dist)
	} else {
		t.nearest1(t.root, key, &best, &visited)
	}
	t.countQuery(visited)
	return best, visited, true
}

// kdStackDims is the key dimension up to which a query's per-axis
// offsets live on its stack; longer keys borrow them from kdOffsets.
const kdStackDims = 32

var kdOffsets = sync.Pool{New: func() any { return new([]float64) }}

// kdPruneSlack is the relative margin of the cell bound in sqQuery.walk.
// The bound and a node's distance are the same sum rounded in different
// orders: the bound picks up at most three roundings per tree level, the
// distance one per dimension, so they can disagree by (3·depth + dim)
// units of 2^-53 — below this margin until a root-to-leaf path is millions
// of nodes long — and a cell is cut only when the bound clears best by
// more than the margin.
const kdPruneSlack = 1e-9

// sqQuery is one nearest-neighbour search in squared Euclidean space;
// best.Dist holds the squared distance during the descent.
type sqQuery struct {
	key     vec.Vector
	best    Neighbor
	visited int
}

// walk searches the subtree at n, whose cell lies rd (squared) from the
// query: off[a] is the query's signed offset along axis a from that cell
// (0 while the query is inside the cell's extent on a) and the squares
// sum to rd. It is the single-axis search this tree always ran — descend to
// the query's side first, cross a split only when the split plane is no
// farther than best — with the incremental cell bound of Arya and Mount
// on top: crossing a split replaces that axis' offset, the squared
// distance to the far cell follows in O(1), and the far subtree is cut
// when even its cell is farther than best. A single axis rarely exceeds
// best in 16 dimensions; the sum over the axes already crossed does.
// Every node that could improve best or tie it is still visited, in the
// same order, so results are those of the single-axis search bit for
// bit and only the visit count falls.
func (q *sqQuery) walk(n *kdNode, off []float64, rd float64) {
	if n == nil {
		return
	}
	q.visited++
	if !n.deleted {
		d := vec.SquaredEuclidean(q.key, n.key)
		if d < q.best.Dist || (d == q.best.Dist && n.id < q.best.ID) {
			q.best = Neighbor{ID: n.id, Key: n.key, Dist: d}
		}
	}
	// diff < 0 is axisLess: a difference of floats is zero only when
	// they are equal.
	diff := axisDiff(q.key, n.key, n.axis)
	first, second := n.left, n.right
	if !(diff < 0) {
		first, second = n.right, n.left
	}
	q.walk(first, off, rd)
	if second == nil {
		return
	}
	ax2 := diff * diff
	if !(ax2 <= q.best.Dist) {
		return
	}
	// The far cell lies beyond this split, which is at least as far
	// along the axis as the split that gave the current offset, so
	// ax2 - old*old is never negative and rd only grows down a path.
	old := off[n.axis]
	far := rd + (ax2 - old*old)
	if far <= q.best.Dist*(1+kdPruneSlack) {
		off[n.axis] = diff
		q.walk(second, off, far)
		off[n.axis] = old
	}
}

// ReplayInsert implements Replayer with the comparison of the search
// above. The Euclidean search orders by squared distance and reports the
// root, and two different squares can share a root, so there a tie in
// the reported distance is decided only at 0, where the squares tie too.
func (t *KDTree) ReplayInsert(q vec.Vector, cur Neighbor, found bool, id ID, key vec.Vector) (Neighbor, bool) {
	if t.euclid {
		d := math.Sqrt(vec.SquaredEuclidean(q, key))
		return replayInsert(d, cur, found, id, d == 0)
	}
	return replayInsert(t.metric.Distance(q, key), cur, found, id, true)
}

// nearest1 tracks the single best candidate in place, mirroring
// search()'s traversal order, pruning, and min-ID tie-break.
func (t *KDTree) nearest1(n *kdNode, key vec.Vector, best *Neighbor, visited *int) {
	if n == nil {
		return
	}
	*visited++
	if !n.deleted {
		d := t.metric.Distance(key, n.key)
		if d < best.Dist || (d == best.Dist && n.id < best.ID) {
			*best = Neighbor{ID: n.id, Key: n.key, Dist: d}
		}
	}
	first, second := n.left, n.right
	if !axisLess(key, n.key, n.axis) {
		first, second = n.right, n.left
	}
	t.nearest1(first, key, best, visited)
	if second != nil {
		if !t.prunable || axisAbsDiff(key, n.key, n.axis) <= best.Dist {
			t.nearest1(second, key, best, visited)
		}
	}
}

// KNearest implements Index.
func (t *KDTree) KNearest(key vec.Vector, k int) []Neighbor {
	ns, _ := t.KNearestProbed(key, k)
	return ns
}

// KNearestProbed implements ProbedSearcher.
func (t *KDTree) KNearestProbed(key vec.Vector, k int) ([]Neighbor, int) {
	if k <= 0 || t.size == 0 {
		return nil, 0
	}
	// A max-heap: the root is the worst of the k kept so far and is
	// replaced when a closer node turns up.
	h := &distHeap{max: true}
	visited := 0
	t.search(t.root, key, k, h, &visited)
	t.countQuery(visited)
	out := make([]Neighbor, 0, len(h.items))
	for _, c := range h.sorted() {
		// byID holds exactly the live nodes, which are all search keeps.
		out = append(out, Neighbor{ID: c.id, Key: t.byID[c.id].key, Dist: c.dist})
	}
	return out, visited
}

func (t *KDTree) search(n *kdNode, key vec.Vector, k int, h *distHeap, visited *int) {
	if n == nil {
		return
	}
	*visited++
	if !n.deleted {
		x := scored{dist: t.metric.Distance(key, n.key), id: n.id}
		if len(h.items) < k {
			h.push(x)
		} else if h.less(h.items[0], x) {
			h.replaceRoot(x)
		}
	}
	goLeft := axisLess(key, n.key, n.axis)
	first, second := n.left, n.right
	if !goLeft {
		first, second = n.right, n.left
	}
	t.search(first, key, k, h, visited)
	// Prune the far side when the axis distance already exceeds the
	// current worst candidate (valid for Lp metrics).
	if second != nil {
		axDist := axisAbsDiff(key, n.key, n.axis)
		if !t.prunable || len(h.items) < k || axDist <= h.items[0].dist {
			t.search(second, key, k, h, visited)
		}
	}
}

func axisAbsDiff(a, b vec.Vector, axis int) float64 {
	return math.Abs(axisDiff(a, b, axis))
}

// axisDiff is a[axis] - b[axis], a missing axis reading as 0 like in
// axisLess.
func axisDiff(a, b vec.Vector, axis int) float64 {
	av, bv := 0.0, 0.0
	if axis < len(a) {
		av = a[axis]
	}
	if axis < len(b) {
		bv = b[axis]
	}
	return av - bv
}

// Len implements Index.
func (t *KDTree) Len() int { return t.size }

// Metric implements Index.
func (t *KDTree) Metric() vec.Metric { return t.metric }

// Kind implements Index.
func (t *KDTree) Kind() Kind { return KindKDTree }
