package index

import (
	"math"
	"slices"

	"repro/internal/vec"
)

// KDTree is a bucketed k-d tree supporting exact nearest-neighbour search
// (paper §3.6: "KD-trees ... support spatial indexing and efficient
// nearest neighbor and range searches").
//
// Layout: the nodes live in one slice and name their children by index.
// Each inner node holds a split axis and value, and every node the
// bounding box of the rows below it, the boxes stored contiguously. A
// leaf holds up to kdLeafSize keys row after row in one []float64, with
// parallel id and key arrays, so a search scans a leaf's rows in place
// instead of chasing a pointer per key. A search descends to the query's
// side of each split first and crosses a split only when neither the
// split plane nor the box on the far side lies farther than the best row
// so far. Planes and boxes bound the Euclidean, Manhattan and Chebyshev
// metrics each in its own terms; under any other metric a search scans
// every row.
//
// The boxes are conservative between rebuilds: Insert widens the boxes on
// its path, but Remove swap-removes a row inside its leaf and leaves every
// box as it was, so a box may be larger than its rows need, never
// smaller, which is all a cut requires. A leaf that overflows is rebuilt
// as a subtree of its own. Once Inserts and Removes since the last build
// pass size>>kdRebuildShift, the whole tree is rebuilt with median splits
// on each subtree's widest axis and tight boxes, taking the rows in the
// order the tree holds them (fixed by the sequence of operations, never
// by map iteration), so removal stays amortized O(log N).
//
// Rows are overwritten in place by Remove and by rebuilds, which run once
// the cache's read lock is released, so a row never backs Neighbor.Key: a
// neighbour's key is the clone Insert took of it, immutable from then on.
// Every key has the row width, the length of the first key inserted into
// an empty tree: Insert refuses any other, and a search of another length
// finds nothing.
type KDTree struct {
	probeCounter
	metric vec.Metric
	norm   boxNorm
	width  int // row width: the length of every key

	nodes  []kdNode
	boxes  []float64 // node i's box: width lows, then width highs, at boxes[2*width*i:]
	leaves []kdLeaf
	free   []int32 // leaves for build to take: an overflowed leaf's, or all during a rebuild
	where  map[ID]kdSlot
	size   int // live entries
	muts   int // Inserts and Removes since the last build
}

// kdLeafSize is a leaf's row capacity, and kdRebuildShift sets the
// rebuild point: after size>>kdRebuildShift mutations. Both were chosen by
// a sweep of BenchmarkMissThenPut (CHANGES.md) while a round walked the
// tree once, unbounded; a round now runs two bounded probes.
const (
	kdLeafSize     = 32
	kdRebuildShift = 1
)

type kdNode struct {
	split       float64 // inner: keys below split on axis descend left
	axis        int32   // inner: the split axis; -1 marks a leaf
	left, right int32   // inner: the children; a leaf: its kdLeaf in left
}

type kdLeaf struct {
	rows []float64    // len(ids) rows of the tree's width
	ids  []ID         // the id of each row
	keys []vec.Vector // the clone Neighbor.Key hands out for each row
}

// kdSlot is where an entry lives: row of leaf node.
type kdSlot struct{ node, row int32 }

type kdEntry struct {
	id  ID
	key vec.Vector
}

// NewKDTree returns an empty KD-tree using metric m.
func NewKDTree(m vec.Metric) *KDTree {
	return &KDTree{metric: m, norm: boxNormOf(m), where: make(map[ID]kdSlot)}
}

// Insert implements Index. Empty keys are rejected: there is no axis to
// split them on. So is a key of another length than the tree's rows.
func (t *KDTree) Insert(id ID, key vec.Vector) error {
	switch {
	case len(key) == 0:
		return ErrEmptyKey
	case t.size == 0:
		t.width = len(key) // the last Remove rebuilt the tree to nothing
	case len(key) != t.width:
		return vec.ErrDimensionMismatch
	}
	t.Remove(id)
	t.size++
	t.add(kdEntry{id, key.Clone()})
	t.mutated()
	return nil
}

// add descends by split value to a leaf, widening the boxes on the way,
// and appends the row there; a full leaf is rebuilt, with the new entry,
// as a subtree.
func (t *KDTree) add(e kdEntry) {
	if len(t.nodes) == 0 {
		t.build(t.newNode(), []kdEntry{e})
		return
	}
	i := int32(0)
	for {
		lo, hi := t.box(i)
		widen(lo, hi, e.key)
		n := t.nodes[i]
		if n.axis >= 0 {
			if e.key[n.axis] < n.split {
				i = n.left
			} else {
				i = n.right
			}
			continue
		}
		l := &t.leaves[n.left]
		if len(l.ids) == kdLeafSize {
			es := append(t.appendLeaf(nil, n.left), e)
			t.free = append(t.free, n.left)
			t.build(i, es)
			return
		}
		t.append(i, l, e)
		return
	}
}

// append adds e as the last row of leaf node i.
func (t *KDTree) append(i int32, l *kdLeaf, e kdEntry) {
	t.where[e.id] = kdSlot{i, int32(len(l.ids))}
	l.rows = append(l.rows, e.key...)
	l.ids = append(l.ids, e.id)
	l.keys = append(l.keys, e.key)
}

// Remove implements Index.
func (t *KDTree) Remove(id ID) {
	s, ok := t.where[id]
	if !ok {
		return
	}
	delete(t.where, id)
	t.size--
	l := &t.leaves[t.nodes[s.node].left]
	last := len(l.ids) - 1
	if int(s.row) != last {
		w := t.width
		copy(l.rows[int(s.row)*w:][:w], l.rows[last*w:])
		l.ids[s.row], l.keys[s.row] = l.ids[last], l.keys[last]
		t.where[l.ids[s.row]] = s
	}
	l.keys[last] = nil
	l.rows, l.ids, l.keys = l.rows[:last*t.width], l.ids[:last], l.keys[:last]
	t.mutated()
}

// mutated counts one Insert or Remove and rebuilds once enough have run
// since the last build. A rebuild costs O(N log N) and runs once per
// N>>kdRebuildShift mutations, so both stay amortized O(log N).
func (t *KDTree) mutated() {
	t.muts++
	if t.muts > t.size>>kdRebuildShift {
		t.rebuild()
	}
}

func (t *KDTree) rebuild() {
	var es []kdEntry
	if len(t.nodes) > 0 {
		es = t.collect(0, make([]kdEntry, 0, t.size))
	}
	// Every leaf is free for the build to take, lowest first; the ones it
	// leaves are dropped.
	t.free = t.free[:0]
	for leaf := len(t.leaves) - 1; leaf >= 0; leaf-- {
		t.free = append(t.free, int32(leaf))
	}
	t.nodes, t.boxes = t.nodes[:0], t.boxes[:0]
	t.muts = 0
	if len(es) > 0 {
		t.build(t.newNode(), es)
	}
	used := len(t.leaves) - len(t.free)
	clear(t.leaves[used:])
	t.leaves, t.free = t.leaves[:used], t.free[:0]
}

// collect appends the entries below node i, left before right and each
// leaf's rows in order.
func (t *KDTree) collect(i int32, es []kdEntry) []kdEntry {
	n := t.nodes[i]
	if n.axis < 0 {
		return t.appendLeaf(es, n.left)
	}
	return t.collect(n.right, t.collect(n.left, es))
}

func (t *KDTree) appendLeaf(es []kdEntry, leaf int32) []kdEntry {
	l := &t.leaves[leaf]
	for r, id := range l.ids {
		es = append(es, kdEntry{id, l.keys[r]})
	}
	return es
}

// build lays es out as the subtree rooted at node i: a leaf once they fit
// in one, otherwise a median split on the axis along which their box is
// widest.
func (t *KDTree) build(i int32, es []kdEntry) {
	lo, hi := t.box(i)
	emptyBox(lo, hi)
	for _, e := range es {
		widen(lo, hi, e.key)
	}
	if len(es) <= kdLeafSize {
		leaf := t.newLeaf()
		t.nodes[i] = kdNode{axis: -1, left: leaf}
		for _, e := range es {
			t.append(i, &t.leaves[leaf], e)
		}
		return
	}
	axis, spread := 0, math.Inf(-1)
	for a := range lo {
		if s := hi[a] - lo[a]; s > spread {
			axis, spread = a, s
		}
	}
	mid := len(es) / 2
	selectKth(es, mid, axis)
	left, right := t.newNode(), t.newNode()
	t.nodes[i] = kdNode{split: es[mid].key[axis], axis: int32(axis), left: left, right: right}
	t.build(left, es[:mid])
	t.build(right, es[mid:])
}

// selectKth reorders es so that es[k] holds the k-th smallest coordinate
// on axis, nothing after it smaller and nothing before it larger. The
// three-way partition keeps runs of equal coordinates, common in real
// keys, from making it quadratic.
func selectKth(es []kdEntry, k, axis int) {
	lo, hi := 0, len(es)
	for hi-lo > 1 {
		p := es[lo+(hi-lo)/2].key[axis]
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := es[i].key[axis]; {
			case v < p:
				es[lt], es[i] = es[i], es[lt]
				lt, i = lt+1, i+1
			case v > p:
				gt--
				es[i], es[gt] = es[gt], es[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

func (t *KDTree) newNode() int32 {
	t.nodes = append(t.nodes, kdNode{})
	t.boxes = slices.Grow(t.boxes, 2*t.width)[:len(t.boxes)+2*t.width]
	return int32(len(t.nodes) - 1)
}

// newLeaf returns an empty leaf: a free one, or a new one.
func (t *KDTree) newLeaf() int32 {
	if k := len(t.free); k > 0 {
		leaf := t.free[k-1]
		t.free = t.free[:k-1]
		l := &t.leaves[leaf]
		clear(l.keys)
		l.rows, l.ids, l.keys = l.rows[:0], l.ids[:0], l.keys[:0]
		return leaf
	}
	t.leaves = append(t.leaves, kdLeaf{
		rows: make([]float64, 0, kdLeafSize*t.width),
		ids:  make([]ID, 0, kdLeafSize),
		keys: make([]vec.Vector, 0, kdLeafSize),
	})
	return int32(len(t.leaves) - 1)
}

// box returns node i's box, its least and greatest coordinate per axis.
func (t *KDTree) box(i int32) (lo, hi []float64) {
	b := t.boxes[int(i)*2*t.width:][:2*t.width]
	return b[:t.width], b[t.width:]
}

// Nearest implements Index. It is a dedicated allocation-free search:
// it runs on every cache lookup and again on every put, for the new
// key's neighbour (see core), and going through KNearest(1) would
// allocate a result slice per call, enough garbage at high concurrency
// that GC mark assists, a global bottleneck, dominate the runtime.
func (t *KDTree) Nearest(key vec.Vector) (Neighbor, bool) {
	n, _, ok := t.NearestWithin(key, math.Inf(1))
	return n, ok
}

// NearestWithin implements Index. The answer is the entry with the least
// (distance, id), ignoring entries at +Inf. The search starts with best
// just above r (r² for the Euclidean metric), as if an entry lay there,
// so it descends to one leaf and crosses a split only toward rows that
// could lie within r. The least entry below that start is the least of
// all whenever the least of all lies within r, and reported only then;
// starting above r, by the prune's slack and one ulp, keeps an entry at
// exactly r.
func (t *KDTree) NearestWithin(key vec.Vector, r float64) (Neighbor, int, bool) {
	if t.size == 0 || len(key) != t.width || !(r >= 0) {
		return Neighbor{}, 0, false
	}
	start := r
	if t.norm == boxL2 {
		start = r * r
	}
	q := nnQuery{t: t, key: key, best: math.Nextafter(start*(1+kdPruneSlack), math.Inf(1)), at: -1}
	q.walk(0)
	t.countQuery(q.evals)
	if q.at < 0 {
		if math.IsInf(r, 1) {
			return Neighbor{Dist: r}, q.evals, true // every row at +Inf
		}
		return Neighbor{}, q.evals, false
	}
	d := q.best
	if t.norm == boxL2 {
		d = math.Sqrt(d)
	}
	if d > r {
		return Neighbor{}, q.evals, false
	}
	return t.neighbor(scored{dist: d, slot: q.at}), q.evals, true
}

// nnQuery is one nearest-neighbour search. For the default Euclidean
// metric it runs in squared-distance space: ordering is preserved (sqrt
// is monotone), so the same entry wins, but the square root is taken once
// at the end instead of at every row, and the distance routine is called
// directly instead of through the Metric interface. Only an entry nearer
// than the start can become best: it starts above the radius with id 0,
// which no tie can undercut.
type nnQuery struct {
	t      *KDTree
	key    vec.Vector
	best   float64 // distance (squared, for Euclidean) of the best entry so far
	bestID ID
	at     int32 // the best entry's slot, as in search; -1 until one is found
	evals  int
}

func (q *nnQuery) consider(d float64, id ID, slot int32) {
	if d < q.best || (d == q.best && id < q.bestID) {
		q.best, q.bestID, q.at = d, id, slot
	}
}

// walk searches the subtree at node i: a leaf's rows in place; an inner
// node's child on the query's side of the split, then the other one
// unless it lies farther than best. Every row that could improve on best
// or tie it is scanned, so the answer is the least (distance, id) over
// all rows. Measuring the near child's box as well would cut little and
// cost as much as the rows it saves.
func (q *nnQuery) walk(i int32) {
	t := q.t
	n := t.nodes[i]
	if n.axis < 0 {
		l := &t.leaves[n.left]
		if t.norm != boxL2 {
			q.scan(l, n.left)
			return
		}
		w := len(q.key)
		for r, id := range l.ids {
			q.consider(vec.SquaredEuclidean(q.key, l.rows[r*w:][:w]), id, n.left*kdLeafSize+int32(r))
		}
		q.evals += len(l.ids)
		return
	}
	near, far := n.left, n.right
	gap := q.key[n.axis] - n.split
	if gap >= 0 {
		near, far = far, near
	}
	q.walk(near)
	if !t.farther(q.key, gap, far, q.best*(1+kdPruneSlack), t.norm == boxL2) {
		q.walk(far)
	}
}

// scan is walk's leaf scan for the metrics other than the Euclidean,
// through their Distance. With this loop in walk's body as well, a
// Euclidean miss measured about a fifth slower.
func (q *nnQuery) scan(l *kdLeaf, leaf int32) {
	w := len(q.key)
	for r, id := range l.ids {
		q.consider(q.t.metric.Distance(q.key, l.rows[r*w:][:w]), id, leaf*kdLeafSize+int32(r))
	}
	q.evals += len(l.ids)
}

// farther reports whether every row below node i, on the far side of a
// split gap away from key, lies farther than limit: in squared distance
// when sq is set, in the metric's own terms otherwise. The rows lie
// beyond the split plane, so its distance bounds theirs too, and a cut
// the plane decides costs no box.
func (t *KDTree) farther(key vec.Vector, gap float64, i int32, limit float64, sq bool) bool {
	switch {
	case t.norm == noBoxBound:
		return false
	case sq && gap*gap > limit, !sq && math.Abs(gap) > limit:
		return true
	}
	lo, hi := t.box(i)
	return t.norm.farther(lo, hi, key, limit, sq)
}

// kdQuery is KNearest's and Radius' search, through the metric's
// Distance: it keeps the k entries with the least (distance, id) among
// those within r of key.
type kdQuery struct {
	t     *KDTree
	key   vec.Vector
	k     int
	r     float64
	found distHeap // farthest kept at the root
	evals int
}

// search runs a kdQuery and returns what it kept, closest first. A slot
// names a row as leaf*kdLeafSize+row. A key of another length than the
// rows keeps nothing.
func (t *KDTree) search(key vec.Vector, k int, r float64) ([]scored, int) {
	q := kdQuery{t: t, key: key, k: k, r: r, found: distHeap{ids: t, max: true}}
	if len(t.nodes) > 0 && len(key) == t.width {
		q.walk(0)
	}
	return q.found.sorted(), q.evals
}

// walk is nnQuery.walk with the limit of a kdQuery.
func (q *kdQuery) walk(i int32) {
	t := q.t
	n := t.nodes[i]
	if n.axis < 0 {
		l := &t.leaves[n.left]
		w := t.width
		for r := range l.ids {
			q.offer(t.metric.Distance(q.key, l.rows[r*w:][:w]), n.left*kdLeafSize+int32(r))
		}
		q.evals += len(l.ids)
		return
	}
	near, far := n.left, n.right
	gap := q.key[n.axis] - n.split
	if gap >= 0 {
		near, far = far, near
	}
	q.walk(near)
	if !t.farther(q.key, gap, far, q.limit()*(1+kdPruneSlack), false) {
		q.walk(far)
	}
}

// limit is the distance beyond which no row can be kept.
func (q *kdQuery) limit() float64 {
	if len(q.found.items) < q.k || q.r < q.found.items[0].dist {
		return q.r
	}
	return q.found.items[0].dist
}

func (q *kdQuery) offer(d float64, slot int32) {
	if !(d <= q.r) {
		return
	}
	x := scored{dist: d, slot: slot}
	if len(q.found.items) < q.k {
		q.found.push(x)
	} else if q.found.less(q.found.items[0], x) {
		q.found.replaceRoot(x)
	}
}

// idAt implements slotIDs over search's slots.
func (t *KDTree) idAt(slot int32) ID {
	return t.leaves[slot/kdLeafSize].ids[slot%kdLeafSize]
}

func (t *KDTree) neighbor(x scored) Neighbor {
	l, r := &t.leaves[x.slot/kdLeafSize], x.slot%kdLeafSize
	return Neighbor{ID: l.ids[r], Key: l.keys[r], Dist: x.dist}
}

func (t *KDTree) neighbors(xs []scored) []Neighbor {
	out := make([]Neighbor, len(xs))
	for i, x := range xs {
		out[i] = t.neighbor(x)
	}
	return out
}

// KNearest implements Index.
func (t *KDTree) KNearest(key vec.Vector, k int) []Neighbor {
	ns, _ := t.KNearestProbed(key, k)
	return ns
}

// KNearestProbed implements Index.
func (t *KDTree) KNearestProbed(key vec.Vector, k int) ([]Neighbor, int) {
	if k <= 0 || t.size == 0 {
		return nil, 0
	}
	xs, evals := t.search(key, k, math.Inf(1))
	t.countQuery(evals)
	return t.neighbors(xs), evals
}

// Radius implements RadiusSearcher.
func (t *KDTree) Radius(key vec.Vector, r float64) []Neighbor {
	xs, evals := t.search(key, math.MaxInt, r)
	t.countQuery(evals)
	if len(xs) == 0 {
		return nil
	}
	return t.neighbors(xs)
}

// Len implements Index.
func (t *KDTree) Len() int { return t.size }

// Metric implements Index.
func (t *KDTree) Metric() vec.Metric { return t.metric }

// Kind implements Index.
func (t *KDTree) Kind() Kind { return KindKDTree }
