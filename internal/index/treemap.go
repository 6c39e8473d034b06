package index

import (
	"repro/internal/vec"
)

// TreeMap is a balanced binary search tree (AVL) over the lexicographic
// order of key vectors, matching the paper's "Treemap ... implemented as
// a balanced binary tree which supports nearest neighbor and range
// searches in O(log N) time. Scalar or vector keys which are compared by
// their lexical order could benefit from this data structure." (§4.2).
//
// Nearest-neighbour queries locate the query's lexicographic position
// and examine a small window of in-order predecessors and successors,
// ranking them with the metric. For scalar (1-D) keys under an Lp metric
// this is exact; for higher dimensions it is a heuristic, which is why
// the cache defaults scalar key types to TreeMap and vector key types to
// KD-tree or LSH.
type TreeMap struct {
	probeCounter
	metric vec.Metric
	root   *avlNode
	size   int
	byID   map[ID]vec.Vector
	// window is how many in-order neighbours to examine on each side.
	window int
}

type avlNode struct {
	id          ID
	key         vec.Vector
	height      int
	left, right *avlNode
}

// NewTreeMap returns an empty tree map using metric m.
func NewTreeMap(m vec.Metric) *TreeMap {
	return &TreeMap{metric: m, byID: make(map[ID]vec.Vector), window: 8}
}

// lexLess orders vectors lexicographically, shorter prefixes first.
func lexLess(a, b vec.Vector) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func lexLessNode(a, b *avlNode) bool {
	if l := lexLess(a.key, b.key); l {
		return true
	}
	if lexLess(b.key, a.key) {
		return false
	}
	return a.id < b.id
}

func height(n *avlNode) int {
	if n == nil {
		return 0
	}
	return n.height
}

func update(n *avlNode) {
	hl, hr := height(n.left), height(n.right)
	if hl > hr {
		n.height = hl + 1
	} else {
		n.height = hr + 1
	}
}

func rotateRight(y *avlNode) *avlNode {
	x := y.left
	y.left = x.right
	x.right = y
	update(y)
	update(x)
	return x
}

func rotateLeft(x *avlNode) *avlNode {
	y := x.right
	x.right = y.left
	y.left = x
	update(x)
	update(y)
	return y
}

func balance(n *avlNode) *avlNode {
	update(n)
	bf := height(n.left) - height(n.right)
	if bf > 1 {
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	}
	if bf < -1 {
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func insert(root, n *avlNode) *avlNode {
	if root == nil {
		n.height = 1
		return n
	}
	if lexLessNode(n, root) {
		root.left = insert(root.left, n)
	} else {
		root.right = insert(root.right, n)
	}
	return balance(root)
}

func remove(root *avlNode, id ID, key vec.Vector) *avlNode {
	if root == nil {
		return nil
	}
	probe := &avlNode{id: id, key: key}
	switch {
	case root.id == id:
		if root.left == nil {
			return root.right
		}
		if root.right == nil {
			return root.left
		}
		// Replace with in-order successor.
		succ := root.right
		for succ.left != nil {
			succ = succ.left
		}
		root.id, root.key = succ.id, succ.key
		root.right = remove(root.right, succ.id, succ.key)
	case lexLessNode(probe, root):
		root.left = remove(root.left, id, key)
	default:
		root.right = remove(root.right, id, key)
	}
	return balance(root)
}

// Insert implements Index.
func (t *TreeMap) Insert(id ID, key vec.Vector) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if old, ok := t.byID[id]; ok {
		t.root = remove(t.root, id, old)
		t.size--
	}
	t.byID[id] = key
	t.root = insert(t.root, &avlNode{id: id, key: key})
	t.size++
	return nil
}

// Remove implements Index.
func (t *TreeMap) Remove(id ID) {
	key, ok := t.byID[id]
	if !ok {
		return
	}
	t.root = remove(t.root, id, key)
	delete(t.byID, id)
	t.size--
}

// neighborsAround collects up to window in-order nodes on each side of
// key's lexicographic position in O(log N + window) using explicit
// predecessor/successor stacks.
func (t *TreeMap) neighborsAround(key vec.Vector) []*avlNode {
	probe := &avlNode{key: key, id: ^ID(0)}
	var predStack, succStack []*avlNode
	n := t.root
	for n != nil {
		if lexLessNode(n, probe) {
			predStack = append(predStack, n)
			n = n.right
		} else {
			succStack = append(succStack, n)
			n = n.left
		}
	}
	out := make([]*avlNode, 0, 2*t.window)
	for i := 0; i < t.window && len(predStack) > 0; i++ {
		top := predStack[len(predStack)-1]
		predStack = predStack[:len(predStack)-1]
		out = append(out, top)
		// Next predecessor: rightmost spine of top's left subtree.
		for c := top.left; c != nil; c = c.right {
			predStack = append(predStack, c)
		}
	}
	for i := 0; i < t.window && len(succStack) > 0; i++ {
		top := succStack[len(succStack)-1]
		succStack = succStack[:len(succStack)-1]
		out = append(out, top)
		// Next successor: leftmost spine of top's right subtree.
		for c := top.right; c != nil; c = c.left {
			succStack = append(succStack, c)
		}
	}
	return out
}

// Nearest implements Index.
func (t *TreeMap) Nearest(key vec.Vector) (Neighbor, bool) {
	res, _ := t.KNearest(key, 1)
	if len(res) == 0 {
		return Neighbor{}, false
	}
	return res[0], true
}

// NearestWithin implements Index: the probe count is the size of the
// ordered-neighbourhood candidate window.
func (t *TreeMap) NearestWithin(key vec.Vector, r float64) (Neighbor, int, bool) {
	res, probes := t.KNearest(key, 1)
	if len(res) == 0 {
		return Neighbor{}, probes, false
	}
	return within(res[0], probes, true, r)
}

// KNearest implements Index.
func (t *TreeMap) KNearest(key vec.Vector, k int) ([]Neighbor, int) {
	if k <= 0 || t.size == 0 {
		return nil, 0
	}
	cands := t.neighborsAround(key)
	t.countQuery(len(cands))
	ns := make([]Neighbor, 0, len(cands))
	seen := make(map[ID]struct{}, len(cands))
	for _, n := range cands {
		if _, dup := seen[n.id]; dup {
			continue
		}
		seen[n.id] = struct{}{}
		ns = append(ns, Neighbor{ID: n.id, Key: n.key, Dist: t.metric.Distance(key, n.key)})
	}
	sortNeighbors(ns)
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns, len(cands)
}

// Len implements Index.
func (t *TreeMap) Len() int { return t.size }

// Metric implements Index.
func (t *TreeMap) Metric() vec.Metric { return t.metric }

// Kind implements Index.
func (t *TreeMap) Kind() Kind { return KindTreeMap }

// Height reports the height of the underlying AVL tree, exposed for
// balance-invariant tests.
func (t *TreeMap) Height() int { return height(t.root) }
