package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vec"
)

func benchKeys(n, dim int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]vec.Vector, n)
	for i := range out {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// BenchmarkInsert measures insertion cost per index kind and size.
func BenchmarkInsert(b *testing.B) {
	for _, kind := range []Kind{KindLinear, KindKDTree, KindLSH, KindTreeMap, KindHash} {
		b.Run(string(kind), func(b *testing.B) {
			keys := benchKeys(b.N, 16, 1)
			idx, _ := New(kind, vec.EuclideanMetric{}, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Insert(ID(i), keys[i])
			}
		})
	}
}

// BenchmarkNearest measures 1-NN query cost per kind at several sizes.
func BenchmarkNearest(b *testing.B) {
	for _, kind := range []Kind{KindKDTree, KindLSH, KindLinear} {
		for _, n := range []int{1_000, 10_000} {
			b.Run(fmt.Sprintf("%s-%d", kind, n), func(b *testing.B) {
				keys := benchKeys(n, 16, 2)
				idx, _ := New(kind, vec.EuclideanMetric{}, 16)
				for i, k := range keys {
					idx.Insert(ID(i), k)
				}
				queries := benchKeys(256, 16, 3)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idx.Nearest(queries[i%len(queries)])
				}
			})
		}
	}
}

// BenchmarkKDTreeNearest times the k-d tree probe on the tree the
// repository benchmark's write-evict workload leaves behind: 4 096 live
// 16-dim keys after 4× that many inserts, each a fresh point (sigma 1)
// around one of 16 384 cluster centres (sigma 100) drawn Zipf(0.9), at
// most one entry per cluster, a random victim per insert at capacity.
// A hit query comes from a cluster that is cached; a miss query from one
// that is not, so its nearest neighbour lies in some far cluster and the
// walk prunes little. That walk is what a cache miss pays. probes/op is
// the index's own count. miss-bounded is the miss as core probes it once
// the tuner is active: within 4× write-evict's threshold (9.19), so the
// walk stops at what could lie that near; miss-bounded8 is the same
// within 8×.
func BenchmarkKDTreeNearest(b *testing.B) {
	const capacity, clusters, dim, queries = 4096, 16384, 16, 512
	rng := rand.New(rand.NewSource(1))
	centres := make([]vec.Vector, clusters)
	cdf := make([]float64, clusters)
	var sum float64
	for c := range centres {
		centres[c] = make(vec.Vector, dim)
		for d := range centres[c] {
			centres[c][d] = rng.NormFloat64() * 100
		}
		sum += 1 / math.Pow(float64(c+1), 0.9)
		cdf[c] = sum
	}
	draw := func() int { return min(sort.SearchFloat64s(cdf, rng.Float64()*sum), clusters-1) }
	point := func(c int) vec.Vector {
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = centres[c][d] + rng.NormFloat64()
		}
		return v
	}
	tree := NewKDTree(vec.EuclideanMetric{})
	cached := make(map[int]bool)
	var live []ID
	var liveCluster []int
	for id := ID(1); id <= 4*capacity; {
		c := draw()
		if cached[c] {
			continue
		}
		if len(live) == capacity {
			i := rng.Intn(len(live))
			tree.Remove(live[i])
			delete(cached, liveCluster[i])
			live[i], liveCluster[i] = live[len(live)-1], liveCluster[len(live)-1]
			live, liveCluster = live[:len(live)-1], liveCluster[:len(live)-1]
		}
		if err := tree.Insert(id, point(c)); err != nil {
			b.Fatal(err)
		}
		cached[c] = true
		live, liveCluster = append(live, id), append(liveCluster, c)
		id++
	}
	var hits, misses []vec.Vector
	for len(hits) < queries || len(misses) < queries {
		c := draw()
		if cached[c] && len(hits) < queries {
			hits = append(hits, point(c))
		} else if !cached[c] && len(misses) < queries {
			misses = append(misses, point(c))
		}
	}
	for _, tc := range []struct {
		name string
		qs   []vec.Vector
		r    float64
	}{{"hit", hits, math.Inf(1)}, {"miss", misses, math.Inf(1)}, {"miss-bounded", misses, 4 * 9.194401154677344}, {"miss-bounded8", misses, 8 * 9.194401154677344}} {
		b.Run(tc.name, func(b *testing.B) {
			probes := 0
			for i := 0; i < b.N; i++ {
				_, p, _ := tree.NearestWithin(tc.qs[i%len(tc.qs)], tc.r)
				probes += p
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
		})
	}
}

// BenchmarkRadius measures range-search cost for the exact structures.
func BenchmarkRadius(b *testing.B) {
	for _, kind := range []Kind{KindKDTree, KindLinear} {
		b.Run(string(kind), func(b *testing.B) {
			keys := benchKeys(10_000, 8, 4)
			idx, _ := New(kind, vec.EuclideanMetric{}, 8)
			for i, k := range keys {
				idx.Insert(ID(i), k)
			}
			queries := benchKeys(128, 8, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Radius(idx, queries[i%len(queries)], 1.0)
			}
		})
	}
}
