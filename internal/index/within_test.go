package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vec"
)

// TestNearestWithinIsNearestFiltered is NearestWithin's oracle over every
// kind: the answer is Nearest's when Nearest's distance is at most r, and
// "not found" otherwise. The radii are 0, a stored key's exact distance,
// the nearest distance itself and the float just below it (ties at
// exactly r), 4·T for a T near the data's neighbour spacing, and +Inf.
// Keys sit on a coarse grid, so exact matches and distance ties are
// common. The k-d tree, which bounds its search by r, must never probe
// more rows than its unbounded search.
func TestNearestWithinIsNearestFiltered(t *testing.T) {
	for _, m := range []vec.Metric{vec.EuclideanMetric{}, vec.ManhattanMetric{}} {
		for _, kind := range allKinds() {
			t.Run(m.Name()+"/"+string(kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				idx, err := New(kind, m, 4)
				if err != nil {
					t.Fatal(err)
				}
				point := func() vec.Vector {
					v := make(vec.Vector, 4)
					for d := range v {
						v[d] = float64(rng.Intn(8))
					}
					return v
				}
				var stored []vec.Vector
				for id := ID(1); id <= 400; id++ {
					k := point()
					if err := idx.Insert(id, k); err != nil {
						t.Fatal(err)
					}
					stored = append(stored, k)
				}
				for i := 0; i < 300; i++ {
					q := point()
					if i%3 == 0 {
						q[0] += 0.5 // equidistant from two grid values
					}
					want, wantOK := idx.Nearest(q)
					_, unbounded, _ := idx.NearestWithin(q, math.Inf(1))
					const threshold = 0.5
					radii := []float64{0, m.Distance(q, stored[rng.Intn(len(stored))]), 4 * threshold, math.Inf(1)}
					if wantOK {
						radii = append(radii, want.Dist, math.Nextafter(want.Dist, 0))
					}
					for _, r := range radii {
						got, probes, ok := idx.NearestWithin(q, r)
						in := wantOK && want.Dist <= r
						if ok != in || (ok && (got.ID != want.ID || math.Float64bits(got.Dist) != math.Float64bits(want.Dist))) {
							t.Fatalf("NearestWithin(%v, %v) = (%d, %v, %v); Nearest (%d, %v, %v)",
								q, r, got.ID, got.Dist, ok, want.ID, want.Dist, wantOK)
						}
						if kind == KindKDTree && probes > unbounded {
							t.Fatalf("NearestWithin(%v, %v) probed %d rows, the unbounded search %d", q, r, probes, unbounded)
						}
					}
				}
			})
		}
	}
}

// TestKDTreeNearestWithinScansLess pins the point of the bound on the
// shape of a far cache miss: 4 096 16-dim keys in clusters ~570 apart and
// a query from an empty cluster. Unbounded, the walk scans most rows; at
// 4× a cluster's spread it scans about the leaf its descent reaches.
func TestKDTreeNearestWithinScansLess(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree := NewKDTree(vec.EuclideanMetric{})
	centres := make([]vec.Vector, 8192)
	for c := range centres {
		centres[c] = randomVec(rng, 16)
		for d := range centres[c] {
			centres[c][d] *= 10 // sigma 100
		}
	}
	around := func(c int) vec.Vector {
		v := centres[c].Clone()
		for d := range v {
			v[d] += rng.NormFloat64()
		}
		return v
	}
	for id := ID(1); id <= 4096; id++ {
		tree.Insert(id, around(int(id)))
	}
	var full, bounded []int
	for i := 0; i < 100; i++ {
		q := around(4096 + 1 + rng.Intn(4095)) // a cluster with no entry
		_, p, _ := tree.NearestWithin(q, math.Inf(1))
		_, b, ok := tree.NearestWithin(q, 4*9.19)
		if ok {
			t.Fatalf("query %d found a neighbour within 36.8 in an empty cluster", i)
		}
		full, bounded = append(full, p), append(bounded, b)
	}
	sort.Ints(full)
	sort.Ints(bounded)
	if full[50] < 2000 || bounded[50] > 4*kdLeafSize {
		t.Errorf("median rows scanned: %d unbounded, %d within 36.8; want most of 4 096, then a few leaves", full[50], bounded[50])
	}
	t.Logf("median rows scanned per far miss: %d unbounded, %d within 36.8", full[50], bounded[50])
}
