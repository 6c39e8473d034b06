package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// clusteredCorpus generates the correlated workload the cache actually
// serves (ISSUE 9 / "Ascent Similarity Caching with Approximate
// Indexes"): points drawn around a modest number of cluster centers, the
// regime where ANN recall matters.
func clusteredCorpus(rng *rand.Rand, n, dim, clusters int, spread float64) []vec.Vector {
	centers := make([]vec.Vector, clusters)
	for i := range centers {
		centers[i] = make(vec.Vector, dim)
		for d := range centers[i] {
			centers[i][d] = rng.NormFloat64() * 100
		}
	}
	out := make([]vec.Vector, n)
	for i := range out {
		c := centers[rng.Intn(clusters)]
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = c[d] + rng.NormFloat64()*spread
		}
		out[i] = v
	}
	return out
}

// trainedOptions sizes training thresholds below the corpus so IVF cells
// and PQ codebooks actually train (the approximate regime under test).
func trainedOptions() Options {
	return Options{
		IVF: IVFConfig{TrainAfter: 1024},
		PQ:  PQConfig{TrainSize: 512},
	}
}

// TestApproximateRecallVsLinear: every approximate kind must find the
// true nearest neighbour for at least a per-kind fraction of queries
// (recall@1), and every returned distance must be the exact metric
// distance to the returned key — never a quantized estimate (the
// distances feed threshold decisions).
func TestApproximateRecallVsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("recall measurement is not short")
	}
	const (
		n       = 4000
		dim     = 16
		queries = 300
	)
	floors := map[Kind]float64{
		KindLSH:    0.95,
		KindHNSW:   0.95,
		KindIVF:    0.95,
		KindHNSWPQ: 0.95,
	}
	rng := rand.New(rand.NewSource(41))
	corpus := clusteredCorpus(rng, n, dim, 64, 2.0)
	metric := vec.EuclideanMetric{}
	lin := NewLinear(metric)
	for i, v := range corpus {
		if err := lin.Insert(ID(i), v); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([]vec.Vector, queries)
	for i := range qs {
		base := corpus[rng.Intn(n)]
		q := base.Clone()
		for d := range q {
			q[d] += rng.NormFloat64() * 0.5
		}
		qs[i] = q
	}
	for kind, floor := range floors {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := NewWithOptions(kind, metric, dim, trainedOptions())
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range corpus {
				if err := idx.Insert(ID(i), v); err != nil {
					t.Fatal(err)
				}
			}
			hits := 0
			for _, q := range qs {
				want, _ := lin.Nearest(q)
				got, ok := idx.Nearest(q)
				if !ok {
					t.Fatal("Nearest returned no result on a populated index")
				}
				// Distances must be exact post-re-rank: recomputing the
				// metric against the returned key reproduces Dist, and no
				// approximate result can beat the exact optimum.
				if got.Key == nil {
					t.Fatalf("result has no key: %+v", got)
				}
				if d := metric.Distance(q, got.Key); math.Abs(d-got.Dist) > 1e-9 {
					t.Fatalf("Dist %v is not the exact distance %v to the returned key", got.Dist, d)
				}
				if got.Dist < want.Dist-1e-9 {
					t.Fatalf("approximate dist %v beats exact optimum %v", got.Dist, want.Dist)
				}
				if got.ID == want.ID || math.Abs(got.Dist-want.Dist) <= 1e-9 {
					hits++
				}
			}
			recall := float64(hits) / float64(len(qs))
			t.Logf("%s recall@1 = %.3f over %d queries", kind, recall, len(qs))
			if recall < floor {
				t.Errorf("recall@1 = %.3f below floor %.2f", recall, floor)
			}
		})
	}
}

// TestPQMemoryReduction: once trained, HNSW-PQ's own key storage (codes
// and codebooks; the full keys it re-ranks against are borrowed from
// the caller, as from the cache core's entries) must be at least
// 8x smaller than flat float64 storage, while it still answers with
// exact distances. Run at
// the coarse dim/4 subspace setting: the default one-byte-per-dimension
// codes compress the payload exactly 8x (so total memory approaches 8x
// only as the fixed codebook amortizes), while dim/4 trades in-cluster
// ranking resolution for 32x codes — the high-compression end of the
// knob this test pins down.
func TestPQMemoryReduction(t *testing.T) {
	const (
		n   = 8192
		dim = 16
	)
	rng := rand.New(rand.NewSource(17))
	corpus := clusteredCorpus(rng, n, dim, 64, 2.0)
	metric := vec.EuclideanMetric{}

	idx := NewHNSWPQ(metric, HNSWConfig{}, PQConfig{Subspaces: dim / 4, TrainSize: 512})
	for i, v := range corpus {
		if err := idx.Insert(ID(i), v); err != nil {
			t.Fatal(err)
		}
	}
	flatBytes := int64(n * dim * 8)
	pqBytes := idx.KeyBytes()
	ratio := float64(flatBytes) / float64(pqBytes)
	t.Logf("flat %d B, pq %d B, reduction %.1fx (%.1f B/entry)",
		flatBytes, pqBytes, ratio, float64(pqBytes)/float64(n))
	if ratio < 8 {
		t.Errorf("PQ key storage reduction %.1fx, want >= 8x", ratio)
	}

	// Exactness survives the compression: recompute distances.
	for q := 0; q < 50; q++ {
		query := corpus[rng.Intn(n)].Clone()
		for d := range query {
			query[d] += rng.NormFloat64() * 0.5
		}
		got, ok := idx.Nearest(query)
		if !ok {
			t.Fatal("no result")
		}
		if d := metric.Distance(query, got.Key); math.Abs(d-got.Dist) > 1e-9 {
			t.Fatalf("Dist %v != exact %v with trained PQ codes", got.Dist, d)
		}
	}
}
