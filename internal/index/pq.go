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
	counts := make([]int, k)
	sums := make([]float64, k*width)
	for it := 0; it < iters; it++ {
		for i := range counts {
			counts[i] = 0
		}
		for i := range sums {
			sums[i] = 0
		}
		for _, v := range samples {
			best := nearestCentroid(book, v[start:start+width])
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
		start := q.substart(s)
		code[s] = byte(nearestCentroid(q.books[s], v[start:start+q.subwidth(s)]))
	}
	return code
}

// nearestCentroid returns the index of the centroid of book, a flat run
// of len(sub)-wide centroids, nearest sub in squared Euclidean distance;
// the lowest index wins a tie.
func nearestCentroid(book []float64, sub vec.Vector) int {
	w := len(sub)
	best, bestD := 0, math.Inf(1)
	for c := 0; c*w < len(book); c++ {
		if d := vec.SquaredEuclidean(sub, book[c*w:][:w]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
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

// adcTable precomputes, for one query, the partial distance under the
// metric m of form f (not FormOther) from the query's subvector to every
// codebook centroid: scoring a candidate is then one table lookup a
// subspace instead of a dim-wide distance computation.
func (q *quantizer) adcTable(query vec.Vector, m vec.Metric, f vec.Form) []float64 {
	return q.adcTableInto(nil, query, m, f)
}

// adcTableInto is adcTable building the table in t's storage, which it
// grows if it is too short.
func (q *quantizer) adcTableInto(t []float64, query vec.Vector, m vec.Metric, f vec.Form) []float64 {
	t = slices.Grow(t[:0], q.m*q.k)[:q.m*q.k]
	for s := 0; s < q.m; s++ {
		start := q.substart(s)
		f.Partials(m, query[start:start+q.subwidth(s)], q.books[s], t[s*q.k:][:q.k])
	}
	return t
}

// adcScore combines a code's table entries into an estimated distance in
// true metric units: the greatest under FormLinf, otherwise the finished
// sum. A NaN entry makes it NaN, as a NaN coordinate makes the distance.
func adcScore(t []float64, code []byte, k int, f vec.Form) float64 {
	var d float64
	if f == vec.FormLinf {
		for s, c := range code {
			d = max(d, t[s*k+int(c)])
		}
		return d
	}
	for s, c := range code {
		d += t[s*k+int(c)]
	}
	return f.Finish(d)
}
