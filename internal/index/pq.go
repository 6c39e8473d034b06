package index

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/vec"
)

// Product quantization (pq) is the compressed-key half of the
// sub-linear index work (ROADMAP item 3, grounded in "Ascent Similarity
// Caching with Approximate Indexes"). A product quantizer splits each
// vector into M subspaces, learns a 256-centroid codebook per subspace
// from the first TrainSize inserts (k-means-lite, seeded,
// deterministic), and thereafter encodes each key as one byte per
// subspace instead of 8 bytes per dimension — 8x smaller at subspace
// width 1, 32x at width 4. Queries score candidates with an asymmetric
// distance table (query vs codebook centroids, computed once per
// query), and the top candidates are re-ranked against the full keys so
// the distances an index returns — the inputs to every threshold
// decision — are exact, never quantized estimates.
//
// HNSW-PQ (NewHNSWPQ) is the one kind that uses it. Each node keeps
// the key Insert was given, as flat HNSW does, and the graph keeps the
// node's code in a slot-strided column beside it; KeyBytes counts the
// codes and codebooks, not the borrowed keys. In the cache core the
// entry owns every key, so the codes replace the scan rows flat HNSW
// copies each key into.

// PQConfig parameterizes HNSW-PQ's product quantizer.
type PQConfig struct {
	// Subspaces is the number of sub-quantizers M (one code byte each).
	// 0 means one sub-quantizer per dimension — an 8x compression of
	// the float64 payload that keeps enough resolution to rank
	// within-cluster candidates at 10^5+ entries. Coarser settings
	// (dim/2, dim/4, ...) compress up to 32x but lose ranking
	// resolution inside dense clusters, costing recall at scale.
	Subspaces int
	// TrainSize is how many keys arrive before the codebooks are
	// trained. Until then the graph scores the keys themselves, exactly.
	TrainSize int
	// Iters is the number of Lloyd iterations per codebook.
	Iters int
	// Seed makes codebook training deterministic.
	Seed int64
	// ReRank is how many top candidates (beyond k) are re-ranked with
	// exact distances after approximate scoring.
	ReRank int
}

// DefaultPQConfig returns parameters suited to the feature vectors of
// the paper's workloads (tens to hundreds of dimensions).
func DefaultPQConfig() PQConfig {
	return PQConfig{TrainSize: 4096, Iters: 6, Seed: 1, ReRank: 64}
}

func (c PQConfig) withDefaults() PQConfig {
	d := DefaultPQConfig()
	if c.TrainSize <= 0 {
		c.TrainSize = d.TrainSize
	}
	if c.Iters <= 0 {
		c.Iters = d.Iters
	}
	if c.ReRank <= 0 {
		c.ReRank = d.ReRank
	}
	return c
}

// MemoryReporter reports the in-memory footprint of an index's key
// storage, used by the memory-per-entry benchmarks and the space
// accounting in experiments.
type MemoryReporter interface {
	// KeyBytes returns the approximate bytes of key storage: the keys
	// an uncompressed kind scans (HNSW's rows; the keys IVF's cells
	// borrow, counted as its own), or, once HNSW-PQ is trained, its codes
	// and codebooks but not the keys it borrows for re-ranking. Graph and
	// cell structure are excluded.
	KeyBytes() int64
}

// quantizer is the trained product-quantization codec: M sub-codebooks
// of up to 256 centroids each over contiguous subspaces of the key.
type quantizer struct {
	dim    int
	m      int // subspaces
	subdim int // ceil(dim/m); the last subspace may be narrower
	k      int // centroids per codebook (<= 256)
	// books[s] holds codebook s as k centroids of subwidth(s) floats,
	// flattened.
	books [][]float64
}

func (q *quantizer) substart(s int) int { return s * q.subdim }

func (q *quantizer) subwidth(s int) int {
	w := q.dim - s*q.subdim
	if w > q.subdim {
		w = q.subdim
	}
	return w
}

// trainQuantizer learns codebooks from samples (all of dimension dim)
// with seeded k-means. Deterministic: same samples in the same order and
// the same seed produce bitwise-identical codebooks.
func trainQuantizer(samples []vec.Vector, dim, subspaces, iters int, seed int64) *quantizer {
	m := subspaces
	if m <= 0 {
		m = dim
	}
	if m > dim {
		m = dim
	}
	subdim := (dim + m - 1) / m
	// With subdim-wide subspaces, fewer than m may be needed (e.g.
	// dim=11, m=7 gives subdim=2 and only 6 non-empty subspaces).
	m = (dim + subdim - 1) / subdim
	q := &quantizer{dim: dim, m: m, subdim: subdim}
	q.k = 256
	if len(samples) < q.k {
		q.k = len(samples)
	}
	rng := rand.New(rand.NewSource(seed))
	q.books = make([][]float64, m)
	for s := 0; s < m; s++ {
		q.books[s] = trainCodebook(samples, q.substart(s), q.subwidth(s), q.k, iters, rng)
	}
	return q
}

// trainCodebook runs k-means-lite over one subspace: seeded sampling for
// the initial centroids, a few Lloyd iterations, empty cells re-seeded
// from the sample set.
func trainCodebook(samples []vec.Vector, start, width, k, iters int, rng *rand.Rand) []float64 {
	book := make([]float64, k*width)
	for c := 0; c < k; c++ {
		src := samples[rng.Intn(len(samples))]
		copy(book[c*width:(c+1)*width], src[start:start+width])
	}
	assign := make([]int, len(samples))
	counts := make([]int, k)
	sums := make([]float64, k*width)
	for it := 0; it < iters; it++ {
		for i := range counts {
			counts[i] = 0
		}
		for i := range sums {
			sums[i] = 0
		}
		for i, v := range samples {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				var d float64
				row := book[c*width:]
				for j := 0; j < width; j++ {
					x := v[start+j] - row[j]
					d += float64(x * x)
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			counts[best]++
			row := sums[best*width:]
			for j := 0; j < width; j++ {
				row[j] += v[start+j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed dead centroids deterministically.
				src := samples[rng.Intn(len(samples))]
				copy(book[c*width:(c+1)*width], src[start:start+width])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < width; j++ {
				book[c*width+j] = sums[c*width+j] * inv
			}
		}
	}
	return book
}

// encode maps v (of dimension q.dim) to its code bytes.
func (q *quantizer) encode(v vec.Vector) []byte {
	code := make([]byte, q.m)
	for s := 0; s < q.m; s++ {
		start, width := q.substart(s), q.subwidth(s)
		book := q.books[s]
		best, bestD := 0, math.Inf(1)
		for c := 0; c < q.k; c++ {
			var d float64
			row := book[c*width:]
			for j := 0; j < width; j++ {
				x := v[start+j] - row[j]
				d += float64(x * x)
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		code[s] = byte(best)
	}
	return code
}

// decode reconstructs the centroid vector of a code.
func (q *quantizer) decode(code []byte) vec.Vector {
	out := make(vec.Vector, q.dim)
	for s := 0; s < q.m; s++ {
		start, width := q.substart(s), q.subwidth(s)
		copy(out[start:start+width], q.books[s][int(code[s])*width:])
	}
	return out
}

// adcKind classifies metrics by how their distance decomposes across
// subspaces for asymmetric-distance scoring.
type adcKind int

const (
	adcSumSq  adcKind = iota // Euclidean: sum of squared partials, sqrt at the end
	adcSum                   // Manhattan: sum of absolute partials
	adcMax                   // Chebyshev: max of partials
	adcDecode                // anything else: decode and apply the metric
)

func adcKindFor(m vec.Metric) adcKind {
	switch m.(type) {
	case vec.EuclideanMetric:
		return adcSumSq
	case vec.ManhattanMetric:
		return adcSum
	case vec.ChebyshevMetric:
		return adcMax
	}
	return adcDecode
}

// adcTable precomputes, for one query, the partial distance from the
// query's subvector to every codebook centroid: scoring a candidate is
// then m table lookups instead of a dim-wide distance computation.
func (q *quantizer) adcTable(query vec.Vector, kind adcKind) []float64 {
	return q.adcTableInto(nil, query, kind)
}

// adcTableInto is adcTable building the table in t's storage, which it
// grows if it is too short.
func (q *quantizer) adcTableInto(t []float64, query vec.Vector, kind adcKind) []float64 {
	t = slices.Grow(t[:0], q.m*q.k)[:q.m*q.k]
	for s := 0; s < q.m; s++ {
		start, width := q.substart(s), q.subwidth(s)
		book := q.books[s]
		for c := 0; c < q.k; c++ {
			row := book[c*width:]
			var d float64
			switch kind {
			case adcSumSq:
				for j := 0; j < width; j++ {
					x := query[start+j] - row[j]
					d += float64(x * x)
				}
			case adcSum:
				for j := 0; j < width; j++ {
					d += math.Abs(query[start+j] - row[j])
				}
			case adcMax:
				for j := 0; j < width; j++ {
					if x := math.Abs(query[start+j] - row[j]); x > d {
						d = x
					}
				}
			}
			t[s*q.k+c] = d
		}
	}
	return t
}

// adcScore combines a code's table entries into an estimated distance in
// true metric units.
func adcScore(t []float64, code []byte, k int, kind adcKind) float64 {
	var d float64
	switch kind {
	case adcSumSq:
		for s, c := range code {
			d += t[s*k+int(c)]
		}
		return math.Sqrt(d)
	case adcSum:
		for s, c := range code {
			d += t[s*k+int(c)]
		}
		return d
	default: // adcMax
		for s, c := range code {
			if x := t[s*k+int(c)]; x > d {
				d = x
			}
		}
		return d
	}
}
