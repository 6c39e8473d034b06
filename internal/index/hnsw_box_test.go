package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// boxCase is an HNSW graph and the live keys it holds, small enough that a
// search reaches every node, so that its answers can be held to a scan.
type boxCase struct {
	t   *testing.T
	h   *HNSW
	ref map[ID]vec.Vector
}

func newBoxCase(t *testing.T, kind Kind, m vec.Metric) *boxCase {
	cfg := HNSWConfig{EfSearch: 64, Seed: 1}
	h := NewHNSW(m, cfg)
	if kind == KindHNSWPQ {
		h = NewHNSWPQ(m, cfg, PQConfig{})
	}
	return &boxCase{t: t, h: h, ref: make(map[ID]vec.Vector)}
}

func (c *boxCase) insert(id ID, key vec.Vector) {
	c.t.Helper()
	if err := c.h.Insert(id, key); err != nil {
		c.t.Fatal(err)
	}
	c.ref[id] = key
	if err := checkHNSW(c.h); err != nil {
		c.t.Fatalf("after inserting %d at %v: %v", id, key, err)
	}
}

func (c *boxCase) remove(id ID) {
	c.h.Remove(id)
	delete(c.ref, id)
}

// probe asks NearestWithin for the nearest key within r of q and holds it
// to a scan of the live keys: an answer the box gives (none, from no
// probe, counted as one query) must be the scan's, and where a key lies
// within r it must find what the scan finds. It reports whether the box
// answered.
func (c *boxCase) probe(q vec.Vector, r float64) bool {
	c.t.Helper()
	m := c.h.metric
	var want Neighbor
	in := 0
	for id, k := range c.ref {
		if d := m.Distance(q, k); d <= r {
			if in++; in == 1 || d < want.Dist || d == want.Dist && id < want.ID {
				want = Neighbor{ID: id, Dist: d}
			}
		}
	}
	before := c.h.ProbeStats()
	got, probes, ok := c.h.NearestWithin(q, r)
	certified := !ok && probes == 0
	if after := c.h.ProbeStats(); after.Queries != before.Queries+1 || after.Probes != before.Probes+int64(probes) {
		c.t.Fatalf("NearestWithin(%v, %v) in %d probes moved the stats from %+v to %+v", q, r, probes, before, after)
	}
	if certified && in > 0 {
		c.t.Fatalf("NearestWithin(%v, %v) answered none from the box, but a scan finds %d keys within r, nearest %d at %v",
			q, r, in, want.ID, want.Dist)
	}
	if in > 0 && (!ok || got.ID != want.ID || math.Float64bits(got.Dist) != math.Float64bits(want.Dist)) {
		c.t.Fatalf("NearestWithin(%v, %v) = (%d, %v, %v) in %d probes; a scan finds %d at %v",
			q, r, got.ID, got.Dist, ok, probes, want.ID, want.Dist)
	}
	return certified
}

// unboxedMetric is the Euclidean distance under a type no box bounds.
type unboxedMetric struct{ vec.EuclideanMetric }

// TestHNSWExtentEdgeCases holds the box HNSW answers far misses from to a
// scan of its keys, with and without PQ, over the three metrics a box
// bounds: keys and queries with NaN and infinite coordinates; a query on a face
// of the box at r = 0, and one just off a corner at exactly its distance
// to the corner key, where r² and the box's squared bound round apart;
// and a graph emptied and refilled elsewhere, whose box must start again.
// Under a metric no box bounds the box never answers.
func TestHNSWExtentEdgeCases(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	radii := []float64{0, 0.5, 3, 50, 1e6, inf}
	for _, kind := range []Kind{KindHNSW, KindHNSWPQ} {
		for _, m := range []vec.Metric{vec.EuclideanMetric{}, vec.ManhattanMetric{}, vec.ChebyshevMetric{}} {
			t.Run(string(kind)+"/"+m.Name()+"/nan-inf", func(t *testing.T) {
				c := newBoxCase(t, kind, m)
				rng := rand.New(rand.NewSource(5))
				for id := ID(1); id <= 24; id++ {
					c.insert(id, uniformVec(rng, 4, 0, 10))
				}
				c.insert(25, vec.Vector{5, nan, 5, 5})
				c.insert(26, vec.Vector{5, 5, inf, 5})
				c.insert(27, vec.Vector{5, 5, 5, -inf})
				queries := []vec.Vector{
					{5, 5, 5, 5}, c.ref[3].Clone(),
					{1000, 5, 5, 5}, {-1000, 5, 5, 5}, {5, 1000, 5, 5},
					{nan, 5, 5, 5}, {5, nan, 5, 5}, {1000, nan, 5, 5},
					{inf, 5, 5, 5}, {-inf, 5, 5, 5}, {5, 5, inf, 5}, {5, 5, 5, -inf}, {1000, 5, inf, 5},
				}
				for _, q := range queries {
					for _, r := range radii {
						c.probe(q, r)
					}
				}
				for _, q := range []vec.Vector{{1000, 5, 5, 5}, {5, 1000, 5, 5}, {-inf, 5, 5, 5}} {
					if !c.probe(q, 50) {
						t.Errorf("the box did not answer %v within 50, beyond it on one finite axis", q)
					}
				}
			})
			t.Run(string(kind)+"/"+m.Name()+"/face", func(t *testing.T) {
				c := newBoxCase(t, kind, m)
				id := ID(1)
				for i := 1; i <= 5; i++ {
					for j := 1; j <= 5; j++ {
						c.insert(id, vec.Vector{2 * float64(i), 2 * float64(j), 5, 5})
						id++
					}
				}
				corner := vec.Vector{0, 0, 5, 5} // the least coordinate on axes 0 and 1
				c.insert(id, corner)
				if c.probe(vec.Vector{0, 3, 5, 5}, 0) || c.probe(corner.Clone(), 0) {
					t.Error("the box answered none within 0 for a query on its face")
				}
				// Off the corner by 1 and g, the box's squared bound is
				// 1 + g·g, summed as the distance is; under the Euclidean
				// metric take a g whose distance r squares to less.
				g := 1.0
				if _, l2 := m.(vec.EuclideanMetric); l2 {
					for ; g < 2; g += 1e-3 {
						if r := m.Distance(vec.Vector{-1, -g}, vec.Vector{0, 0}); r*r < 1+g*g {
							break
						}
					}
					if g >= 2 {
						t.Fatal("no offset in [1, 2) squares its distance below the box's bound")
					}
				}
				q := vec.Vector{-1, -g, 5, 5}
				r := m.Distance(q, corner)
				if c.probe(q, r) {
					t.Errorf("the box answered none within %v for a query at exactly that distance from a key", r)
				}
				if !c.probe(q, r/2) {
					t.Errorf("the box did not answer a query off its corner within %v", r/2)
				}
			})
			t.Run(string(kind)+"/"+m.Name()+"/refill", func(t *testing.T) {
				c := newBoxCase(t, kind, m)
				rng := rand.New(rand.NewSource(6))
				for id := ID(1); id <= 20; id++ {
					c.insert(id, uniformVec(rng, 4, 0, 10))
				}
				for id := ID(1); id <= 20; id++ {
					c.remove(id)
				}
				for id := ID(21); id <= 40; id++ {
					c.insert(id, uniformVec(rng, 4, 1000, 1010))
				}
				if !c.probe(vec.Vector{5, 5, 5, 5}, 50) {
					t.Error("the box still holds the keys of the region the graph was emptied of")
				}
				for _, r := range radii {
					c.probe(uniformVec(rng, 4, 1000, 1010), r)
				}
				// Re-inserting the only live id empties the graph first.
				for id := ID(21); id < 40; id++ {
					c.remove(id)
				}
				c.insert(40, vec.Vector{-1000, -1000, -1000, -1000})
				if !c.probe(vec.Vector{1005, 1005, 1005, 1005}, 50) {
					t.Error("the box still holds the key its id was re-inserted over")
				}
				c.probe(vec.Vector{-1000, -1000, -1000, -999}, 3)
			})
		}
	}
	t.Run("no-box-bound", func(t *testing.T) {
		c := newBoxCase(t, KindHNSW, unboxedMetric{})
		rng := rand.New(rand.NewSource(7))
		for id := ID(1); id <= 24; id++ {
			c.insert(id, uniformVec(rng, 4, 0, 10))
		}
		for _, r := range radii {
			if c.probe(vec.Vector{1000, 5, 5, 5}, r) {
				t.Errorf("a metric with no box bound answered a probe within %v from the box", r)
			}
		}
	})
}

// uniformVec draws each coordinate uniformly from [lo, hi).
func uniformVec(rng *rand.Rand, dim int, lo, hi float64) vec.Vector {
	v := make(vec.Vector, dim)
	for d := range v {
		v[d] = lo + rng.Float64()*(hi-lo)
	}
	return v
}
