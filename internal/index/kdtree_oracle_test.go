package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// refNearestSq is the Euclidean search this tree ran before the cell
// bound: descend to the query's side, cross a split when the split plane
// alone is no farther than best. It is kept, test-only and otherwise
// unchanged, as the reference TestKDTreeMatchesSingleAxisSearch walks
// the same tree with: the two must agree on the id and on every bit of
// the distance, and the bound may only lower the visit count.
func refNearestSq(n *kdNode, key vec.Vector, best *Neighbor, visited *int) {
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

func refNearest(t *KDTree, key vec.Vector) (Neighbor, int, bool) {
	if t.size == 0 {
		return Neighbor{}, 0, false
	}
	best := Neighbor{Dist: math.Inf(1)}
	visited := 0
	refNearestSq(t.root, key, &best, &visited)
	best.Dist = math.Sqrt(best.Dist)
	return best, visited, true
}

// kdStream drives one seeded stream of inserts, removes, replacements
// and forced rebuilds against a tree, with coordinates on a coarse grid
// so that duplicate coordinates, duplicate keys and exact distance ties
// are the common case rather than the exception.
type kdStream struct {
	t    *testing.T
	rng  *rand.Rand
	dim  int
	grid int
	tree *KDTree
	live []ID
	keys map[ID]vec.Vector
	next ID
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
		return "remove"
	case r < 97:
		s.insert(s.live[s.rng.Intn(len(s.live))])
		return "replace"
	default:
		s.tree.rebuild()
		return "rebuild"
	}
}

// check compares the two searches on a stored key, a grid point and an
// off-grid point (half-integers sit at equal distance from two grid
// values on every axis).
func (s *kdStream) check(op string, n int) {
	queries := []vec.Vector{s.point(), make(vec.Vector, s.dim)}
	for i := range queries[1] {
		queries[1][i] = float64(s.rng.Intn(2*s.grid)) / 2
	}
	if len(s.live) > 0 {
		queries = append(queries, s.keys[s.live[s.rng.Intn(len(s.live))]])
	}
	for _, q := range queries {
		got, gotVisited, gotOK := s.tree.NearestProbed(q)
		want, wantVisited, wantOK := refNearest(s.tree, q)
		if gotOK != wantOK || got.ID != want.ID || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			s.t.Fatalf("dim %d op %d (%s): Nearest(%v) = (%d, %x, %v), single-axis search (%d, %x, %v)",
				s.dim, n, op, q, got.ID, math.Float64bits(got.Dist), gotOK, want.ID, math.Float64bits(want.Dist), wantOK)
		}
		if gotVisited > wantVisited {
			s.t.Fatalf("dim %d op %d (%s): visited %d nodes, single-axis search %d", s.dim, n, op, gotVisited, wantVisited)
		}
	}
	if s.tree.Len() != len(s.live) {
		s.t.Fatalf("dim %d op %d (%s): Len %d, want %d", s.dim, n, op, s.tree.Len(), len(s.live))
	}
}

func TestKDTreeMatchesSingleAxisSearch(t *testing.T) {
	for _, tc := range []struct{ dim, grid, ops int }{
		{1, 6, 1500}, {2, 4, 1500}, {3, 3, 1500}, {16, 3, 1500}, {64, 2, 600}, {768, 2, 150},
	} {
		tc := tc
		t.Run(fmt.Sprintf("dim%d", tc.dim), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				s := &kdStream{
					t: t, rng: rand.New(rand.NewSource(seed)), dim: tc.dim, grid: tc.grid,
					tree: NewKDTree(vec.EuclideanMetric{}), keys: make(map[ID]vec.Vector),
				}
				for n := 0; n < tc.ops; n++ {
					s.check(s.step(), n)
				}
			}
		})
	}
}

// TestKDTreePrunesMoreThanSingleAxis pins the point of the cell bound on
// the shape a cache miss has: 16-dim keys and a query whose neighbour is
// far. The single-axis test walks nearly the whole tree there (3 800 of
// 4 096 nodes); the cell bound reads about a fifth fewer.
func TestKDTreePrunesMoreThanSingleAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree := NewKDTree(vec.EuclideanMetric{})
	for id := ID(1); id <= 4096; id++ {
		tree.Insert(id, randomVec(rng, 16))
	}
	var got, want int
	for i := 0; i < 200; i++ {
		q := randomVec(rng, 16)
		_, g, _ := tree.NearestProbed(q)
		_, w, _ := refNearest(tree, q)
		got, want = got+g, want+w
	}
	if got*10 > want*9 {
		t.Fatalf("cell bound visited %d nodes, single-axis search %d: expected at least a tenth fewer", got, want)
	}
}

// TestKDTreeReplacementsStayBounded: replacing a live id tombstones its
// old node, and used to skip the compaction check that Remove runs, so a
// stream of replacements grew the tree by one dead node each.
func TestKDTreeReplacementsStayBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree := NewKDTree(vec.EuclideanMetric{})
	for i := 0; i < 10000; i++ {
		if err := tree.Insert(1, randomVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
		if nodes := countNodes(tree.root); nodes > 2 {
			t.Fatalf("after %d replacements of one id the tree holds %d nodes", i+1, nodes)
		}
	}
	if tree.Len() != 1 || tree.dead != 0 {
		t.Fatalf("Len %d dead %d, want 1 and 0", tree.Len(), tree.dead)
	}
	// The same through a populated tree: dead nodes never exceed a third
	// of the live ones.
	for id := ID(1); id <= 300; id++ {
		tree.Insert(id, randomVec(rng, 4))
	}
	for i := 0; i < 10000; i++ {
		tree.Insert(ID(1+rng.Intn(300)), randomVec(rng, 4))
		if 3*tree.dead > tree.size || countNodes(tree.root) != tree.size+tree.dead {
			t.Fatalf("replacement %d: %d live, %d dead, %d nodes", i, tree.size, tree.dead, countNodes(tree.root))
		}
	}
}

func countNodes(n *kdNode) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// TestKDTreeNearestDoesNotAllocate covers both homes of the per-axis
// offsets: the stack at 16 dimensions, the pool at 768.
func TestKDTreeNearestDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
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

// TestReplayInsertMatchesSearch checks Replayer against the search it
// stands in for: remember Nearest(q), insert, and the replayed answer
// must be what Nearest(q) says now, bit for bit, whenever it claims to
// know. Coordinates on a grid make ties and duplicates common.
func TestReplayInsertMatchesSearch(t *testing.T) {
	for _, kind := range []Kind{KindKDTree, KindLinear} {
		for _, m := range []vec.Metric{vec.EuclideanMetric{}, vec.ManhattanMetric{}} {
			rng := rand.New(rand.NewSource(11))
			idx, err := New(kind, m, 3)
			if err != nil {
				t.Fatal(err)
			}
			rp := idx.(Replayer)
			grid := func() vec.Vector {
				return vec.Vector{float64(rng.Intn(4)), float64(rng.Intn(4)), float64(rng.Intn(4))}
			}
			decided := 0
			for id := ID(1); id <= 400; id++ {
				q, key := grid(), grid()
				if rng.Intn(4) == 0 {
					q[0] += 0.5
				}
				cur, found := idx.Nearest(q)
				// Half the inserts take an id below the current answer's,
				// so a tie goes either way.
				ins := id + 1000
				if rng.Intn(2) == 0 {
					ins = 1000 - id
				}
				next, ok := rp.ReplayInsert(q, cur, found, ins, key)
				idx.Insert(ins, key)
				want, _ := idx.Nearest(q)
				if !ok {
					continue
				}
				decided++
				if next.ID != want.ID || math.Float64bits(next.Dist) != math.Float64bits(want.Dist) {
					t.Fatalf("%s/%s insert %d: replay says (%d, %v), Nearest (%d, %v)",
						kind, m.Name(), id, next.ID, next.Dist, want.ID, want.Dist)
				}
				if rng.Intn(3) == 0 {
					// Remove something other than the answer: it must not
					// matter to the next round.
					idx.Remove(ins + 1)
				}
			}
			if decided < 300 {
				t.Fatalf("%s/%s: only %d of 400 replays decided", kind, m.Name(), decided)
			}
		}
	}
}
