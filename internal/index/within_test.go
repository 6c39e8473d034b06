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

// TestHNSWNearestWithinRecall holds HNSW's bounded search to the
// unbounded one on the index-scale benchmark's keys and queries (8 000
// entries, 4 096 queries, one in twenty far, EfSearch 512) at radii 20
// and 60, about 4·T for the threshold that workload learns. The bounded
// search must find an answer within r for the same queries, agree with
// an exact scan's NearestWithin on all but at most 2 in 4 096 more
// queries than the unbounded search does, and score at most a third as
// many nodes. Every far query lies beyond the keys' box, so it must be
// answered with 0 probes, and an exact scan must find nothing within r of
// it; no near query may be. The search bound is for exact scores only:
// over the first 2 000 keys, HNSW-PQ's answer is its unbounded search's,
// filtered, and so is its probe count wherever the box does not answer.
func TestHNSWNearestWithinRecall(t *testing.T) {
	if raceEnabled {
		t.Skip("a recall measurement learns nothing under the race detector")
	}
	seeds := []int64{1, 2, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const n, nq, nPQ = 8000, 4096, 2000
	radii := []float64{20, 60}
	inf := math.Inf(1)
	for _, seed := range seeds {
		h, queries := indexScaleGraph(t, n, seed, nq, 0.05)
		h.cfg.EfSearch = 512
		lin := NewLinear(h.metric)
		pq := NewHNSWPQ(h.metric, HNSWConfig{EfSearch: 512}, PQConfig{TrainSize: 512})
		for s, node := range h.nodes {
			lin.Insert(h.ids[s], node.vec)
			if s < nPQ {
				pq.Insert(h.ids[s], node.vec)
			}
		}
		agree, agreeFull := make([]int, len(radii)), make([]int, len(radii))
		probes, probesFull := make([]int, len(radii)), 0
		for i, q := range queries {
			exact, _ := lin.Nearest(q)
			full, pFull, _ := h.NearestWithin(q, inf)
			probesFull += pFull
			pqFull, pqPFull, _ := pq.NearestWithin(q, inf)
			isFar := q[0] > 1000 // indexScaleGraph's far queries sit near 5 000
			for j, r := range radii {
				exactOK, fullOK := exact.Dist <= r, full.Dist <= r
				got, p, ok := h.NearestWithin(q, r)
				if ok != fullOK {
					t.Fatalf("seed %d r %v query %d: found within r %v bounded, %v unbounded", seed, r, i, ok, fullOK)
				}
				if certified := !ok && p == 0; certified != isFar || certified && exactOK {
					t.Fatalf("seed %d r %v query %d (far %v): %d probes, found %v; an exact scan found %v at %v",
						seed, r, i, isFar, p, ok, exact.ID, exact.Dist)
				}
				if ok == exactOK && (!ok || got.Dist == exact.Dist) {
					agree[j]++
				}
				if fullOK == exactOK && (!fullOK || full.Dist == exact.Dist) {
					agreeFull[j]++
				}
				probes[j] += p
				if i%8 != 0 {
					continue
				}
				pqGot, pqP, pqOK := pq.NearestWithin(q, r)
				if isFar != (pqP == 0) {
					t.Fatalf("seed %d r %v query %d (far %v): HNSW-PQ scored %d nodes", seed, r, i, isFar, pqP)
				}
				if pqOK != (pqFull.Dist <= r) || !isFar && pqP != pqPFull || (pqOK && (pqGot.ID != pqFull.ID || pqGot.Dist != pqFull.Dist)) {
					t.Fatalf("seed %d r %v query %d: HNSW-PQ within r = (%d, %v, %v) in %d probes; unbounded (%d, %v) in %d",
						seed, r, i, pqGot.ID, pqGot.Dist, pqOK, pqP, pqFull.ID, pqFull.Dist, pqPFull)
				}
			}
		}
		for j, r := range radii {
			t.Logf("seed %d r %v: exact answers %d bounded, %d unbounded, of %d; mean probes %.1f bounded, %.1f unbounded",
				seed, r, agree[j], agreeFull[j], nq, float64(probes[j])/nq, float64(probesFull)/nq)
			if agree[j] < agreeFull[j]-2 {
				t.Errorf("seed %d r %v: the bounded search agrees with an exact scan on %d queries, the unbounded on %d", seed, r, agree[j], agreeFull[j])
			}
			if 3*probes[j] > probesFull {
				t.Errorf("seed %d r %v: %d probes bounded, more than a third of %d unbounded", seed, r, probes[j], probesFull)
			}
		}
	}
}
