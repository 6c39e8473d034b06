package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func randomVec(rng *rand.Rand, dim int) vec.Vector {
	v := make(vec.Vector, dim)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

func allKinds() []Kind {
	return []Kind{
		KindLinear, KindKDTree, KindLSH, KindTreeMap, KindHash,
		KindHNSW, KindIVF, KindHNSWPQ,
	}
}

func TestNewKinds(t *testing.T) {
	for _, k := range allKinds() {
		idx, err := New(k, vec.EuclideanMetric{}, 4)
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if idx.Kind() != k {
			t.Errorf("New(%s).Kind() = %s", k, idx.Kind())
		}
		if idx.Len() != 0 {
			t.Errorf("New(%s).Len() = %d, want 0", k, idx.Len())
		}
	}
	if _, err := New("bogus", vec.EuclideanMetric{}, 4); err == nil {
		t.Error("New with unknown kind did not error")
	}
}

func TestEmptyIndexQueries(t *testing.T) {
	for _, k := range allKinds() {
		idx, _ := New(k, vec.EuclideanMetric{}, 3)
		if _, ok := idx.Nearest(vec.Vector{1, 2, 3}); ok {
			t.Errorf("%s: Nearest on empty index reported ok", k)
		}
		if got, _ := idx.KNearest(vec.Vector{1, 2, 3}, 5); len(got) != 0 {
			t.Errorf("%s: KNearest on empty index = %v", k, got)
		}
		idx.Remove(42) // must not panic
	}
}

func TestInsertNearestExact(t *testing.T) {
	for _, k := range allKinds() {
		idx, _ := New(k, vec.EuclideanMetric{}, 2)
		idx.Insert(1, vec.Vector{0, 0})
		idx.Insert(2, vec.Vector{10, 0})
		idx.Insert(3, vec.Vector{0, 10})
		n, ok := idx.Nearest(vec.Vector{1, 1})
		if !ok || n.ID != 1 {
			t.Errorf("%s: Nearest = %+v, ok=%v, want ID 1", k, n, ok)
		}
		if n.Dist != math.Sqrt(2) {
			t.Errorf("%s: Dist = %v, want sqrt(2)", k, n.Dist)
		}
	}
}

func TestInsertReplacesExistingID(t *testing.T) {
	for _, k := range allKinds() {
		idx, _ := New(k, vec.EuclideanMetric{}, 2)
		idx.Insert(1, vec.Vector{0, 0})
		idx.Insert(1, vec.Vector{100, 100})
		if idx.Len() != 1 {
			t.Errorf("%s: Len after replace = %d, want 1", k, idx.Len())
		}
		n, _ := idx.Nearest(vec.Vector{99, 99})
		if n.ID != 1 || n.Key[0] != 100 {
			t.Errorf("%s: replaced key not found: %+v", k, n)
		}
	}
}

func TestRemove(t *testing.T) {
	for _, k := range allKinds() {
		idx, _ := New(k, vec.EuclideanMetric{}, 2)
		idx.Insert(1, vec.Vector{0, 0})
		idx.Insert(2, vec.Vector{5, 5})
		idx.Remove(1)
		if idx.Len() != 1 {
			t.Errorf("%s: Len after remove = %d, want 1", k, idx.Len())
		}
		n, ok := idx.Nearest(vec.Vector{0, 0})
		if !ok || n.ID != 2 {
			t.Errorf("%s: Nearest after remove = %+v", k, n)
		}
		idx.Remove(1) // double-remove is a no-op
		if idx.Len() != 1 {
			t.Errorf("%s: double remove changed Len to %d", k, idx.Len())
		}
	}
}

func TestKNearestOrdering(t *testing.T) {
	for _, k := range allKinds() {
		idx, _ := New(k, vec.EuclideanMetric{}, 1)
		for i := 1; i <= 10; i++ {
			idx.Insert(ID(i), vec.Vector{float64(i)})
		}
		got, _ := idx.KNearest(vec.Vector{0}, 3)
		if len(got) != 3 {
			t.Fatalf("%s: KNearest returned %d results", k, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Errorf("%s: results out of order: %v", k, got)
			}
		}
		if got[0].ID != 1 {
			t.Errorf("%s: closest = %v, want ID 1", k, got[0])
		}
	}
}

func TestKNearestKLargerThanLen(t *testing.T) {
	for _, k := range allKinds() {
		idx, _ := New(k, vec.EuclideanMetric{}, 1)
		idx.Insert(1, vec.Vector{1})
		idx.Insert(2, vec.Vector{2})
		if got, _ := idx.KNearest(vec.Vector{0}, 10); len(got) != 2 {
			t.Errorf("%s: KNearest(k=10) over 2 entries = %d results", k, len(got))
		}
		if got, _ := idx.KNearest(vec.Vector{0}, 0); got != nil {
			t.Errorf("%s: KNearest(k=0) = %v, want nil", k, got)
		}
	}
}

// TestExactIndicesAgreeWithLinear checks that KDTree (an exact structure)
// returns identical nearest-neighbour distances to the linear reference
// under random workloads. LSH is checked separately because its Nearest
// includes a fallback that also makes it exact in this implementation.
func TestExactIndicesAgreeWithLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		lin := NewLinear(vec.EuclideanMetric{})
		kd := NewKDTree(vec.EuclideanMetric{})
		lsh := NewLSH(vec.EuclideanMetric{}, DefaultLSHConfig())
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			v := randomVec(rng, 4)
			lin.Insert(ID(i), v)
			kd.Insert(ID(i), v)
			lsh.Insert(ID(i), v)
		}
		// Random removals.
		for i := 0; i < n/3; i++ {
			id := ID(rng.Intn(n))
			lin.Remove(id)
			kd.Remove(id)
			lsh.Remove(id)
		}
		for q := 0; q < 20; q++ {
			query := randomVec(rng, 4)
			nl, okL := lin.Nearest(query)
			nk, okK := kd.Nearest(query)
			if okL != okK {
				t.Fatalf("trial %d: ok mismatch linear=%v kdtree=%v", trial, okL, okK)
			}
			if okL && math.Abs(nl.Dist-nk.Dist) > 1e-9 {
				t.Errorf("trial %d: kdtree dist %v != linear dist %v", trial, nk.Dist, nl.Dist)
			}
		}
	}
}

func TestLSHRecallOnClusters(t *testing.T) {
	// Points in two tight, well-separated clusters: LSH probing must find
	// the right cluster without the fallback.
	cfg := DefaultLSHConfig()
	l := NewLSH(vec.EuclideanMetric{}, cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		base := 0.0
		if i%2 == 1 {
			base = 1000
		}
		v := make(vec.Vector, 8)
		for d := range v {
			v[d] = base + rng.NormFloat64()
		}
		l.Insert(ID(i), v)
	}
	query := make(vec.Vector, 8)
	for d := range query {
		query[d] = 1000.0
	}
	res := l.ProbeOnly(query, 5)
	if len(res) == 0 {
		t.Fatal("ProbeOnly found no candidates in a dense cluster")
	}
	for _, n := range res {
		if n.ID%2 != 1 {
			t.Errorf("probe returned far-cluster point %d at dist %v", n.ID, n.Dist)
		}
	}
}

func TestTreeMapBalance(t *testing.T) {
	tm := NewTreeMap(vec.EuclideanMetric{})
	// Sorted insertion is the worst case for an unbalanced BST.
	n := 1024
	for i := 0; i < n; i++ {
		tm.Insert(ID(i), vec.Vector{float64(i)})
	}
	maxH := int(2 * math.Log2(float64(n+1)))
	if h := tm.Height(); h > maxH {
		t.Errorf("AVL height %d exceeds bound %d for %d sorted inserts", h, maxH, n)
	}
	for i := 0; i < n; i += 2 {
		tm.Remove(ID(i))
	}
	if tm.Len() != n/2 {
		t.Errorf("Len after removals = %d, want %d", tm.Len(), n/2)
	}
	if h := tm.Height(); h > maxH {
		t.Errorf("AVL height %d exceeds bound %d after removals", h, maxH)
	}
}

func TestTreeMapScalarExact(t *testing.T) {
	tm := NewTreeMap(vec.EuclideanMetric{})
	lin := NewLinear(vec.EuclideanMetric{})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v := vec.Vector{rng.Float64() * 100}
		tm.Insert(ID(i), v)
		lin.Insert(ID(i), v)
	}
	for q := 0; q < 100; q++ {
		query := vec.Vector{rng.Float64() * 100}
		nt, _ := tm.Nearest(query)
		nl, _ := lin.Nearest(query)
		if math.Abs(nt.Dist-nl.Dist) > 1e-12 {
			t.Errorf("scalar treemap dist %v != linear %v", nt.Dist, nl.Dist)
		}
	}
}

func TestHashExactHit(t *testing.T) {
	h := NewHash(vec.EuclideanMetric{})
	h.Insert(1, vec.Vector{1.5, 2.5})
	h.Insert(2, vec.Vector{3.5, 4.5})
	n, ok := h.Nearest(vec.Vector{1.5, 2.5})
	if !ok || n.ID != 1 || n.Dist != 0 {
		t.Errorf("exact hit: %+v, ok=%v", n, ok)
	}
	// Miss falls back to scan.
	n, ok = h.Nearest(vec.Vector{3.4, 4.4})
	if !ok || n.ID != 2 {
		t.Errorf("approximate fallback: %+v", n)
	}
}

func TestKDTreeRebuildKeepsResults(t *testing.T) {
	kd := NewKDTree(vec.EuclideanMetric{})
	rng := rand.New(rand.NewSource(5))
	keys := make(map[ID]vec.Vector)
	for i := 0; i < 400; i++ {
		v := randomVec(rng, 3)
		kd.Insert(ID(i), v)
		keys[ID(i)] = v
	}
	// Remove enough to force a rebuild (dead > size).
	for i := 0; i < 300; i++ {
		kd.Remove(ID(i))
		delete(keys, ID(i))
	}
	if kd.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", kd.Len(), len(keys))
	}
	lin := NewLinear(vec.EuclideanMetric{})
	for id, v := range keys {
		lin.Insert(id, v)
	}
	for q := 0; q < 50; q++ {
		query := randomVec(rng, 3)
		nk, _ := kd.Nearest(query)
		nl, _ := lin.Nearest(query)
		if math.Abs(nk.Dist-nl.Dist) > 1e-9 {
			t.Errorf("post-rebuild dist %v != linear %v", nk.Dist, nl.Dist)
		}
	}
}

// Property: for any batch of keys, the KD-tree 1-NN distance equals the
// brute-force minimum distance.
func TestKDTreeNearestProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%64) + 1
		kd := NewKDTree(vec.EuclideanMetric{})
		pts := make([]vec.Vector, n)
		for i := 0; i < n; i++ {
			pts[i] = randomVec(rng, 3)
			kd.Insert(ID(i), pts[i])
		}
		query := randomVec(rng, 3)
		got, ok := kd.Nearest(query)
		if !ok {
			return false
		}
		want := math.Inf(1)
		for _, p := range pts {
			if d := (vec.EuclideanMetric{}).Distance(query, p); d < want {
				want = d
			}
		}
		return math.Abs(got.Dist-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: KNearest(k) distances are non-decreasing for every kind.
func TestKNearestMonotoneProperty(t *testing.T) {
	for _, kind := range allKinds() {
		kind := kind
		f := func(seed int64, nRaw, kRaw uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			n := int(nRaw%80) + 1
			k := int(kRaw%10) + 1
			idx, _ := New(kind, vec.EuclideanMetric{}, 3)
			for i := 0; i < n; i++ {
				idx.Insert(ID(i), randomVec(rng, 3))
			}
			res, _ := idx.KNearest(randomVec(rng, 3), k)
			for i := 1; i < len(res); i++ {
				if res[i].Dist < res[i-1].Dist {
					return false
				}
			}
			return len(res) <= k
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}
