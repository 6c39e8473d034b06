package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

// TestPQTrainingDeterministic: identical samples in identical order with
// the same seed must produce bitwise-identical codebooks and codes —
// durable-store recovery replays inserts in log order and the rebuilt
// index must answer identically.
func TestPQTrainingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := clusteredCorpus(rng, 600, 12, 16, 3.0)
	a := trainQuantizer(samples, 12, 0, 6, 1)
	b := trainQuantizer(samples, 12, 0, 6, 1)
	if !reflect.DeepEqual(a.books, b.books) {
		t.Fatal("same samples + seed produced different codebooks")
	}
	for _, v := range samples[:50] {
		if !reflect.DeepEqual(a.encode(v), b.encode(v)) {
			t.Fatal("same codec produced different codes")
		}
	}
	c := trainQuantizer(samples, 12, 0, 6, 2)
	if reflect.DeepEqual(a.books, c.books) {
		t.Fatal("different seeds produced identical codebooks (suspicious)")
	}
}

// TestPQRoundTripErrorBounded: encode→decode reconstruction error must be
// bounded by the data spread — the codec quantizes within the sampled
// distribution, so a trained centroid is never further from a sample
// than the sample space is wide.
func TestPQRoundTripErrorBounded(t *testing.T) {
	const (
		dim    = 16
		spread = 2.0
	)
	rng := rand.New(rand.NewSource(9))
	samples := clusteredCorpus(rng, 1500, dim, 32, spread)
	q := trainQuantizer(samples, dim, 0, 6, 1)
	metric := vec.EuclideanMetric{}
	var worst float64
	for _, v := range samples {
		rec := q.decode(q.encode(v))
		if d := metric.Distance(v, rec); d > worst {
			worst = d
		}
	}
	// With 256 centroids per 4-wide subspace over 32 clusters of width
	// ~spread, reconstruction stays within a few cluster widths. The
	// bound is intentionally loose — it guards against codec breakage
	// (wrong subspace offsets, byte truncation), not quantizer quality.
	bound := spread * 10 * math.Sqrt(dim)
	if worst > bound {
		t.Fatalf("worst reconstruction error %v exceeds bound %v", worst, bound)
	}
}

// TestADCMatchesDecodedDistance: for decomposable metrics, the ADC table
// estimate of a code must equal the true metric distance between the
// query and the decoded centroid — ADC is an optimization, not a
// different answer.
func TestADCMatchesDecodedDistance(t *testing.T) {
	metrics := []vec.Metric{vec.EuclideanMetric{}, vec.ManhattanMetric{}, vec.ChebyshevMetric{}}
	rng := rand.New(rand.NewSource(13))
	samples := clusteredCorpus(rng, 800, 10, 16, 2.0)
	q := trainQuantizer(samples, 10, 0, 5, 1)
	for _, m := range metrics {
		kind := adcKindFor(m)
		if kind == adcDecode {
			t.Fatalf("%s unexpectedly not decomposable", m.Name())
		}
		for trial := 0; trial < 40; trial++ {
			query := randomVec(rng, 10)
			table := q.adcTable(query, kind)
			v := samples[rng.Intn(len(samples))]
			code := q.encode(v)
			est := adcScore(table, code, q.k, kind)
			want := m.Distance(query, q.decode(code))
			if math.Abs(est-want) > 1e-9 {
				t.Fatalf("%s: adc estimate %v != decoded distance %v", m.Name(), est, want)
			}
		}
	}
}

// Property: the codec round-trips arbitrary seeded corpora without
// panicking, codes are always m bytes, and decoding always lands on a
// codebook centroid combination (every subspace value appears in the
// book).
func TestPQCodecProperty(t *testing.T) {
	f := func(seed int64, dimRaw, subRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := int(dimRaw%24) + 1
		sub := int(subRaw % 8) // 0 = derive
		n := 300
		samples := make([]vec.Vector, n)
		for i := range samples {
			samples[i] = randomVec(rng, dim)
		}
		q := trainQuantizer(samples, dim, sub, 4, seed)
		if q.m < 1 || q.m > dim {
			return false
		}
		for _, v := range samples[:20] {
			code := q.encode(v)
			if len(code) != q.m {
				return false
			}
			rec := q.decode(code)
			if len(rec) != dim {
				return false
			}
			for s := 0; s < q.m; s++ {
				if int(code[s]) >= q.k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPQStoreUntrainedIsExact: before TrainSize keys have arrived
// HNSW-PQ scores the keys themselves (no approximation tax for small key
// sets): over the same stream of inserts and removals it builds flat
// HNSW's graph and gives its answers, ids, distance bits and probe counts
// alike, and counts its keys' bytes as flat HNSW counts its rows.
func TestPQStoreUntrainedIsExact(t *testing.T) {
	m := vec.EuclideanMetric{}
	cfg := HNSWConfig{M: 6, EfConstruction: 24}
	flat, pq := NewHNSW(m, cfg), NewHNSWPQ(m, cfg, PQConfig{TrainSize: 1000})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		if i%4 == 3 {
			id := ID(rng.Intn(i))
			flat.Remove(id)
			pq.Remove(id)
			continue
		}
		v := randomVec(rng, 6)
		if err := flat.Insert(ID(i), v); err != nil {
			t.Fatal(err)
		}
		if err := pq.Insert(ID(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if pq.codec != nil {
		t.Fatal("codec trained below TrainSize")
	}
	if pq.KeyBytes() != flat.KeyBytes() {
		t.Fatalf("KeyBytes = %d, flat HNSW's %d", pq.KeyBytes(), flat.KeyBytes())
	}
	same := func(what string, got, want []Neighbor) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d neighbours, flat HNSW %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("%s[%d] = id %d dist %v, flat HNSW id %d dist %v", what, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
			}
		}
	}
	for i := 0; i < 100; i++ {
		q := randomVec(rng, 6)
		got, gotProbes := pq.KNearestProbed(q, 5)
		want, wantProbes := flat.KNearestProbed(q, 5)
		if gotProbes != wantProbes {
			t.Fatalf("query %d: %d probes, flat HNSW %d", i, gotProbes, wantProbes)
		}
		same("KNearest", got, want)
		same("Radius", pq.Radius(q, 15), flat.Radius(q, 15))
	}
	if pq.ProbeStats() != flat.ProbeStats() {
		t.Fatalf("probe stats %+v, flat HNSW %+v", pq.ProbeStats(), flat.ProbeStats())
	}
}
