package index

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vec"
)

// refKDTree is the pointer-per-key k-d tree KDTree replaced, kept
// test-only as the reference the bucketed tree is compared against: one
// node per key, tombstoned deletion, a balanced rebuild once a quarter of
// the nodes are dead, and its single-axis searches (descend to the
// query's side, cross a split when the split plane alone is no farther
// than the current limit). Its cell-bounded Euclidean walk is not kept:
// it visited fewer nodes of the same tree and returned these answers bit
// for bit.
type refKDTree struct {
	metric   vec.Metric
	prunable bool
	euclid   bool
	root     *refKDNode
	size     int
	dead     int
	byID     map[ID]*refKDNode
}

type refKDNode struct {
	id          ID
	key         vec.Vector
	axis        int
	left, right *refKDNode
	deleted     bool
}

func newRefKDTree(m vec.Metric) *refKDTree {
	var prunable, euclid bool
	switch m.(type) {
	case vec.EuclideanMetric:
		prunable, euclid = true, true
	case vec.ManhattanMetric, vec.ChebyshevMetric:
		prunable = true
	}
	return &refKDTree{metric: m, prunable: prunable, euclid: euclid, byID: make(map[ID]*refKDNode)}
}

func (t *refKDTree) Insert(id ID, key vec.Vector) {
	if old, ok := t.byID[id]; ok && !old.deleted {
		t.tombstone(old)
	}
	n := &refKDNode{id: id, key: key.Clone()}
	t.byID[id] = n
	t.size++
	if t.root == nil {
		t.root = n
		return
	}
	cur := t.root
	for {
		n.axis = (cur.axis + 1) % len(n.key)
		if axisLess(n.key, cur.key, cur.axis) {
			if cur.left == nil {
				cur.left = n
				return
			}
			cur = cur.left
		} else {
			if cur.right == nil {
				cur.right = n
				return
			}
			cur = cur.right
		}
	}
}

// axisLess compares along an axis, tolerating keys of differing
// dimensionality (shorter keys read as 0 on missing axes).
func axisLess(a, b vec.Vector, axis int) bool {
	return axisDiff(a, b, axis) < 0
}

func axisAbsDiff(a, b vec.Vector, axis int) float64 {
	return math.Abs(axisDiff(a, b, axis))
}

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

func (t *refKDTree) Remove(id ID) {
	n, ok := t.byID[id]
	if !ok || n.deleted {
		return
	}
	delete(t.byID, id)
	t.tombstone(n)
}

func (t *refKDTree) tombstone(n *refKDNode) {
	n.deleted = true
	t.size--
	t.dead++
	if 3*t.dead > t.size {
		t.rebuild()
	}
}

func (t *refKDTree) rebuild() {
	nodes := make([]*refKDNode, 0, t.size)
	var collect func(n *refKDNode)
	collect = func(n *refKDNode) {
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
	t.root = refBuildBalanced(nodes, 0)
	t.dead = 0
}

func refBuildBalanced(nodes []*refKDNode, axis int) *refKDNode {
	if len(nodes) == 0 {
		return nil
	}
	mid := len(nodes) / 2
	refQuickSelect(nodes, mid, axis)
	n := nodes[mid]
	n.axis = axis
	next := (axis + 1) % len(n.key)
	n.left = refBuildBalanced(nodes[:mid], next)
	n.right = refBuildBalanced(nodes[mid+1:], next)
	return n
}

func refQuickSelect(nodes []*refKDNode, k, axis int) {
	lo, hi := 0, len(nodes)-1
	for lo < hi {
		pivot := nodes[hi].key
		p := lo
		for j := lo; j < hi; j++ {
			if axisLess(nodes[j].key, pivot, axis) {
				nodes[p], nodes[j] = nodes[j], nodes[p]
				p++
			}
		}
		nodes[p], nodes[hi] = nodes[hi], nodes[p]
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

// NearestWithin is the single-axis search, in squared space for the
// Euclidean metric and in the metric's own terms otherwise, filtered by r.
func (t *refKDTree) NearestWithin(key vec.Vector, r float64) (Neighbor, int, bool) {
	if t.size == 0 {
		return Neighbor{}, 0, false
	}
	best := Neighbor{Dist: math.Inf(1)}
	visited := 0
	if t.euclid {
		refNearestSq(t.root, key, &best, &visited)
		best.Dist = math.Sqrt(best.Dist)
	} else {
		t.nearest1(t.root, key, &best, &visited)
	}
	return within(best, visited, true, r)
}

func refNearestSq(n *refKDNode, key vec.Vector, best *Neighbor, visited *int) {
	if n == nil {
		return
	}
	*visited++
	if !n.deleted {
		d := vec.SquaredEuclidean(key, n.key)
		if d < best.Dist || (d == best.Dist && n.id < best.ID) {
			*best = Neighbor{ID: n.id, Key: n.key, Dist: d}
		}
	}
	first, second := n.left, n.right
	if !axisLess(key, n.key, n.axis) {
		first, second = n.right, n.left
	}
	refNearestSq(first, key, best, visited)
	if second != nil {
		ax := axisAbsDiff(key, n.key, n.axis)
		if ax*ax <= best.Dist {
			refNearestSq(second, key, best, visited)
		}
	}
}

func (t *refKDTree) nearest1(n *refKDNode, key vec.Vector, best *Neighbor, visited *int) {
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
	if second != nil && (!t.prunable || axisAbsDiff(key, n.key, n.axis) <= best.Dist) {
		t.nearest1(second, key, best, visited)
	}
}

func (t *refKDTree) KNearest(key vec.Vector, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	// A heap item's slot is the index of its id in seen.
	var seen idColumn
	h := &distHeap{ids: &seen, max: true}
	t.search(t.root, key, k, h, &seen)
	out := make([]Neighbor, 0, len(h.items))
	for _, c := range h.sorted() {
		id := seen[c.slot]
		out = append(out, Neighbor{ID: id, Key: t.byID[id].key, Dist: c.dist})
	}
	return out
}

func (t *refKDTree) search(n *refKDNode, key vec.Vector, k int, h *distHeap, seen *idColumn) {
	if n == nil {
		return
	}
	if !n.deleted {
		*seen = append(*seen, n.id)
		x := scored{dist: t.metric.Distance(key, n.key), slot: int32(len(*seen) - 1)}
		if len(h.items) < k {
			h.push(x)
		} else if h.less(h.items[0], x) {
			h.replaceRoot(x)
		}
	}
	first, second := n.left, n.right
	if !axisLess(key, n.key, n.axis) {
		first, second = n.right, n.left
	}
	t.search(first, key, k, h, seen)
	if second != nil {
		if !t.prunable || len(h.items) < k || axisAbsDiff(key, n.key, n.axis) <= h.items[0].dist {
			t.search(second, key, k, h, seen)
		}
	}
}

func (t *refKDTree) Radius(key vec.Vector, r float64) []Neighbor {
	var out []Neighbor
	var walk func(n *refKDNode)
	walk = func(n *refKDNode) {
		if n == nil {
			return
		}
		if !n.deleted {
			if d := t.metric.Distance(key, n.key); d <= r {
				out = append(out, Neighbor{ID: n.id, Key: n.key, Dist: d})
			}
		}
		first, second := n.left, n.right
		if !axisLess(key, n.key, n.axis) {
			first, second = n.right, n.left
		}
		walk(first)
		if !t.prunable || axisAbsDiff(key, n.key, n.axis) <= r {
			walk(second)
		}
	}
	walk(t.root)
	sortNeighbors(out)
	return out
}

// checkKDTree verifies the bucketed tree's own invariants: every stored
// id sits in exactly one row, where its slot says, each
// row holds its entry's key bit for bit, every box contains every row
// below it, every row lies on its side of each split above it, and Len
// counts them all.
func checkKDTree(t *KDTree) error {
	seen := make(map[ID]bool)
	// up holds the nodes above a leaf; went[k] is the side taken below
	// up[k] (false: left).
	var walk func(i int32, up []int32, went []bool) error
	walk = func(i int32, up []int32, went []bool) error {
		n := t.nodes[i]
		up = append(up, i)
		if n.axis >= 0 {
			if err := walk(n.left, up, append(went, false)); err != nil {
				return err
			}
			return walk(n.right, up, append(went, true))
		}
		l := t.leaves[n.left]
		if len(l.ids) > kdLeafSize || len(l.keys) != len(l.ids) || len(l.rows) != len(l.ids)*t.width {
			return fmt.Errorf("leaf node %d: %d ids, %d keys, %d row floats", i, len(l.ids), len(l.keys), len(l.rows))
		}
		for r, id := range l.ids {
			row := l.rows[r*t.width:][:t.width]
			if seen[id] {
				return fmt.Errorf("id %d stored twice", id)
			}
			seen[id] = true
			if w := t.where[id]; w != (kdSlot{i, int32(r)}) {
				return fmt.Errorf("id %d at node %d row %d, where says %+v", id, i, r, w)
			}
			if !sameBits(row, l.keys[r]) {
				return fmt.Errorf("id %d: row %v, key %v", id, row, l.keys[r])
			}
			for k, j := range up {
				lo, hi := t.box(j)
				for a, x := range row {
					if x < lo[a] || x > hi[a] {
						return fmt.Errorf("id %d: axis %d = %v outside node %d's box [%v, %v]", id, a, x, j, lo[a], hi[a])
					}
				}
				if k < len(went) {
					p := t.nodes[j]
					if x := row[p.axis]; went[k] && x < p.split || !went[k] && x > p.split {
						return fmt.Errorf("id %d: axis %d = %v on the wrong side of node %d's split %v", id, p.axis, x, j, p.split)
					}
				}
			}
		}
		return nil
	}
	if len(t.nodes) > 0 {
		if err := walk(0, nil, nil); err != nil {
			return err
		}
	}
	if len(seen) != t.size || len(t.where) != t.size || t.Len() != t.size {
		return fmt.Errorf("%d entries stored, %d in where, Len %d", len(seen), len(t.where), t.Len())
	}
	return nil
}

func sameBits(a, b vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) || !sameBits(a[i].Key, b[i].Key) {
			return false
		}
	}
	return true
}

// kdStream drives one seeded stream of inserts, removes, replacements
// and forced rebuilds against the tree and the reference at once, with
// coordinates on a coarse grid so that duplicate coordinates, duplicate
// keys and exact distance ties are the common case rather than the
// exception.
type kdStream struct {
	t    *testing.T
	rng  *rand.Rand
	dim  int
	grid int
	tree *KDTree
	ref  *refKDTree
	live []ID
	keys map[ID]vec.Vector
	next ID
}

func newKDStream(t *testing.T, m vec.Metric, dim, grid int, seed int64) *kdStream {
	return &kdStream{
		t: t, rng: rand.New(rand.NewSource(seed)), dim: dim, grid: grid,
		tree: NewKDTree(m), ref: newRefKDTree(m), keys: make(map[ID]vec.Vector),
	}
}

func (s *kdStream) point() vec.Vector {
	// Half the points reuse a stored key with a few coordinates moved:
	// clusters, as the cache's keys are, and more ties.
	v := make(vec.Vector, s.dim)
	if len(s.live) > 0 && s.rng.Intn(2) == 0 {
		copy(v, s.keys[s.live[s.rng.Intn(len(s.live))]])
		for i := 0; i < 1+s.dim/8; i++ {
			v[s.rng.Intn(s.dim)] = float64(s.rng.Intn(s.grid))
		}
		return v
	}
	for i := range v {
		v[i] = float64(s.rng.Intn(s.grid))
	}
	return v
}

func (s *kdStream) insert(id ID) {
	key := s.point()
	if err := s.tree.Insert(id, key); err != nil {
		s.t.Fatal(err)
	}
	s.ref.Insert(id, key)
	if _, ok := s.keys[id]; !ok {
		s.live = append(s.live, id)
	}
	s.keys[id] = key
}

func (s *kdStream) step() string {
	switch r := s.rng.Intn(100); {
	case len(s.live) == 0 || r < 45:
		s.next++
		s.insert(s.next)
		return "insert"
	case r < 80:
		i := s.rng.Intn(len(s.live))
		id := s.live[i]
		s.live[i] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		delete(s.keys, id)
		s.tree.Remove(id)
		s.ref.Remove(id)
		return "remove"
	case r < 97:
		s.insert(s.live[s.rng.Intn(len(s.live))])
		return "replace"
	default:
		s.tree.rebuild()
		s.ref.rebuild()
		return "rebuild"
	}
}

// queries draws what check asks: a fresh point, an off-grid point
// (half-integers sit at equal distance from two grid values on every
// axis) and a stored key.
func (s *kdStream) queries() []vec.Vector {
	half := s.point()
	for i := range half {
		half[i] = float64(s.rng.Intn(2*s.grid)) / 2
	}
	qs := []vec.Vector{s.point(), half}
	if len(s.live) > 0 {
		qs = append(qs, s.keys[s.live[s.rng.Intn(len(s.live))]])
	}
	return qs
}

// diverge compares the tree with the reference on q: NearestWithin on
// (ok, ID, distance bits, key) unbounded, at 0, at the nearest distance
// itself and just below it, KNearest(5) and a Radius reaching past the
// third neighbour. It describes the first difference, or returns "".
func (s *kdStream) diverge(q vec.Vector) string {
	nearest, _, _ := s.ref.NearestWithin(q, math.Inf(1))
	for _, r := range []float64{math.Inf(1), 0, nearest.Dist, math.Nextafter(nearest.Dist, 0)} {
		got, _, gotOK := s.tree.NearestWithin(q, r)
		want, _, wantOK := s.ref.NearestWithin(q, r)
		if gotOK != wantOK || !sameNeighbors([]Neighbor{got}, []Neighbor{want}) {
			return fmt.Sprintf("NearestWithin(%v, %v) = (%d, %x, %v, %v), reference (%d, %x, %v, %v)",
				q, r, got.ID, math.Float64bits(got.Dist), got.Key, gotOK, want.ID, math.Float64bits(want.Dist), want.Key, wantOK)
		}
	}
	gotK, wantK := s.tree.KNearest(q, 5), s.ref.KNearest(q, 5)
	if !sameNeighbors(gotK, wantK) {
		return fmt.Sprintf("KNearest(%v, 5) = %v, reference %v", q, gotK, wantK)
	}
	r := 1.0
	if len(wantK) >= 3 {
		r = wantK[2].Dist + 0.5
	}
	if gotR, wantR := s.tree.Radius(q, r), s.ref.Radius(q, r); !sameNeighbors(gotR, wantR) {
		return fmt.Sprintf("Radius(%v, %v) = %v, reference %v", q, r, gotR, wantR)
	}
	return ""
}

// check compares the searches on three queries and then checks the
// tree's own invariants.
func (s *kdStream) check(op string, n int) {
	for _, q := range s.queries() {
		if d := s.diverge(q); d != "" {
			s.t.Fatalf("dim %d op %d (%s): %s", s.dim, n, op, d)
		}
	}
	if err := checkKDTree(s.tree); err != nil {
		s.t.Fatalf("dim %d op %d (%s): %v", s.dim, n, op, err)
	}
	if s.tree.Len() != len(s.live) {
		s.t.Fatalf("dim %d op %d (%s): Len %d, want %d", s.dim, n, op, s.tree.Len(), len(s.live))
	}
}

// TestKDTreeMatchesSingleAxisSearch replays seeded streams against the
// reference tree's single-axis searches after every operation: Euclidean
// at dims 1 to 768, Manhattan and Chebyshev, whose boxes bound their own
// metric. Every key of a tree has one length (core refuses any other at
// its door), so no stream mixes lengths.
func TestKDTreeMatchesSingleAxisSearch(t *testing.T) {
	for _, tc := range []struct {
		name           string
		metric         vec.Metric
		dim, grid, ops int
	}{
		{"dim1", vec.EuclideanMetric{}, 1, 6, 1500},
		{"dim2", vec.EuclideanMetric{}, 2, 4, 1500},
		{"dim3", vec.EuclideanMetric{}, 3, 3, 1500},
		{"dim16", vec.EuclideanMetric{}, 16, 3, 1500},
		{"dim64", vec.EuclideanMetric{}, 64, 2, 600},
		{"dim768", vec.EuclideanMetric{}, 768, 2, 150},
		{"manhattan", vec.ManhattanMetric{}, 4, 3, 1500},
		{"chebyshev", vec.ChebyshevMetric{}, 4, 3, 1500},
		{"cosine", vec.CosineMetric{}, 3, 3, 600},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				s := newKDStream(t, tc.metric, tc.dim, tc.grid, seed)
				for n := 0; n < tc.ops; n++ {
					s.check(s.step(), n)
				}
			}
		})
	}
}

// TestKDTreeOracleCatchesShrunkenBox: a leaf box moved off its rows along
// one axis must fail the invariant check, and the searches that trust it
// must part from the reference.
func TestKDTreeOracleCatchesShrunkenBox(t *testing.T) {
	s := newKDStream(t, vec.EuclideanMetric{}, 4, 3, 1)
	for s.tree.Len() < 400 {
		s.step()
	}
	s.check("fill", 0)
	var leaf int32 = -1
	for i, n := range s.tree.nodes {
		if n.axis < 0 && len(s.tree.leaves[n.left].ids) > 0 && i > 0 {
			leaf = int32(i)
			break
		}
	}
	if leaf < 0 {
		t.Fatal("no leaf below the root")
	}
	lo, hi := s.tree.box(leaf)
	lo[0], hi[0] = hi[0]+10, hi[0]+10
	if err := checkKDTree(s.tree); err == nil {
		t.Fatal("the invariant check passed a box that holds none of its rows")
	}
	for i := 0; i < 5000; i++ {
		for _, q := range s.queries() {
			if d := s.diverge(q); d != "" {
				t.Logf("after %d rounds of queries: %s", i+1, d)
				return
			}
		}
	}
	t.Fatal("5000 rounds of queries found no divergence behind the shrunken box")
}

// TestKDTreePrunesMoreThanSingleAxis pins the boxes on the shape a cache
// miss has: 16-dim keys and a query whose neighbour is far. The
// single-axis search visits nearly the whole tree there (3 830 of 4 096
// nodes). Cutting whole leaves by their boxes still leaves fewer rows to
// scan (3 640): the time a bucketed miss saves comes from scanning those
// rows in place, and the count must only not grow.
func TestKDTreePrunesMoreThanSingleAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree, ref := NewKDTree(vec.EuclideanMetric{}), newRefKDTree(vec.EuclideanMetric{})
	for id := ID(1); id <= 4096; id++ {
		k := randomVec(rng, 16)
		tree.Insert(id, k)
		ref.Insert(id, k)
	}
	var got, want int
	for i := 0; i < 200; i++ {
		q := randomVec(rng, 16)
		_, g, _ := tree.NearestWithin(q, math.Inf(1))
		_, w, _ := ref.NearestWithin(q, math.Inf(1))
		got, want = got+g, want+w
	}
	if got >= want {
		t.Fatalf("boxes scanned %d rows, single-axis search %d nodes: expected fewer", got, want)
	}
}

// TestKDTreeReplacementsStayBounded: replacing a live id removes its old
// row, and a stream of replacements must not grow the tree: the
// tombstoned tree this replaced once leaked a dead node per replacement.
func TestKDTreeReplacementsStayBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree := NewKDTree(vec.EuclideanMetric{})
	for i := 0; i < 10000; i++ {
		if err := tree.Insert(1, randomVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
		if len(tree.nodes) > 1 || len(tree.leaves) > 1 {
			t.Fatalf("after %d replacements of one id the tree holds %d nodes, %d leaves", i+1, len(tree.nodes), len(tree.leaves))
		}
	}
	if tree.Len() != 1 {
		t.Fatalf("Len %d, want 1", tree.Len())
	}
	// The same through a populated tree: between rebuilds, splits add at
	// most two nodes and two leaves per mutation.
	for id := ID(1); id <= 300; id++ {
		tree.Insert(id, randomVec(rng, 4))
	}
	for i := 0; i < 10000; i++ {
		tree.Insert(ID(1+rng.Intn(300)), randomVec(rng, 4))
		if tree.muts > tree.size>>kdRebuildShift || len(tree.nodes) > 2*tree.size || len(tree.leaves) > tree.size {
			t.Fatalf("replacement %d: %d live, %d mutations since the build, %d nodes, %d leaves",
				i, tree.size, tree.muts, len(tree.nodes), len(tree.leaves))
		}
	}
	if err := checkKDTree(tree); err != nil {
		t.Fatal(err)
	}
}

// TestKDTreeNearestDoesNotAllocate pins an allocation-free Nearest at
// 16 dimensions and at 768.
func TestKDTreeNearestDoesNotAllocate(t *testing.T) {
	for _, dim := range []int{16, 768} {
		rng := rand.New(rand.NewSource(3))
		tree := NewKDTree(vec.EuclideanMetric{})
		for id := ID(1); id <= 500; id++ {
			tree.Insert(id, randomVec(rng, dim))
		}
		q := randomVec(rng, dim)
		if allocs := testing.AllocsPerRun(200, func() { tree.Nearest(q) }); allocs != 0 {
			t.Errorf("dim %d: %v allocations per Nearest, want 0", dim, allocs)
		}
	}
}

// TestKDTreeConcurrentReadersGetSerialAnswers: eight readers under RLock
// must each get exactly the answers a lone reader gets, round after round,
// while between rounds the writer inserts enough to split leaves and
// remove enough to rebuild. Every Neighbor.Key a reader was handed must
// survive those mutations unchanged: rows are overwritten in place, the
// keys handed out are not.
func TestKDTreeConcurrentReadersGetSerialAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	tree := NewKDTree(vec.EuclideanMetric{})
	var live []ID
	for id := ID(1); id <= 1000; id++ {
		tree.Insert(id, randomVec(rng, 16))
		live = append(live, id)
	}
	queries := make([]vec.Vector, 64)
	for i := range queries {
		queries[i] = randomVec(rng, 16)
	}
	type answer struct {
		id     ID
		dist   uint64
		probes int
		k5     ID
	}
	ask := func(q vec.Vector) (answer, vec.Vector) {
		n, probes, _ := tree.NearestWithin(q, math.Inf(1))
		k := tree.KNearest(q, 5)
		return answer{n.ID, math.Float64bits(n.Dist), probes, k[len(k)-1].ID}, n.Key
	}
	var handed []vec.Vector // keys readers were given, and copies of them
	var copies []vec.Vector
	var mu sync.RWMutex
	for round := 0; round < 4; round++ {
		// Between rounds: inserts that overflow leaves and removes that
		// pass the rebuild point.
		splits, builds := 0, 0
		mutate := func(f func()) {
			nodes, muts := len(tree.nodes), tree.muts
			f()
			switch {
			case tree.muts <= muts:
				builds++
			case len(tree.nodes) > nodes:
				splits++
			}
		}
		for i := 0; i < 200; i++ {
			id := ID(1001 + round*200 + i)
			mutate(func() { tree.Insert(id, randomVec(rng, 16)) })
			live = append(live, id)
		}
		for i := 0; i < 300; i++ {
			j := rng.Intn(len(live))
			id := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			mutate(func() { tree.Remove(id) })
		}
		if splits == 0 || builds == 0 {
			t.Fatalf("round %d: %d leaf splits and %d rebuilds between rounds, want both", round, splits, builds)
		}
		for i, k := range handed {
			if !sameBits(k, copies[i]) {
				t.Fatalf("round %d: a key handed out earlier changed to %v from %v", round, k, copies[i])
			}
		}
		want := make([]answer, len(queries))
		for i, q := range queries {
			want[i], _ = ask(q)
		}
		var wg sync.WaitGroup
		got := make([][]vec.Vector, 8)
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := range queries {
					i = (i + r*7) % len(queries)
					mu.RLock()
					a, key := ask(queries[i])
					mu.RUnlock()
					if a != want[i] {
						t.Errorf("round %d reader %d query %d: got %+v, serial answer %+v", round, r, i, a, want[i])
						return
					}
					got[r] = append(got[r], key)
				}
			}(r)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, keys := range got {
			for _, k := range keys {
				handed, copies = append(handed, k), append(copies, k.Clone())
			}
		}
	}
}
