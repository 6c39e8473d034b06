package index

import (
	"math"
	"math/rand"

	"repro/internal/vec"
)

// Product quantization (pq) is the key-storage half of the sub-linear
// index work (ROADMAP item 3, grounded in "Ascent Similarity Caching
// with Approximate Indexes"): at 10^6 entries per (function, key-type)
// the raw float64 feature vectors dominate RAM. A product quantizer
// splits each vector into M subspaces, learns a 256-centroid codebook
// per subspace from the first TrainSize inserts (k-means-lite, seeded,
// deterministic), and thereafter stores one byte per subspace instead
// of 8 bytes per dimension — an 8x reduction at subspace width 1,
// 32x at width 4. Queries score candidates with an asymmetric distance
// table (query vs codebook centroids, computed once per query), and the
// top candidates are re-ranked against uncompressed vectors so the
// distances an index returns — the inputs to every threshold decision —
// are exact, never quantized estimates.
//
// Where the uncompressed vectors come from depends on how the index is
// deployed. Inside the cache core, every key already lives uncompressed
// in the per-key-type members table (guarded by the same RWMutex as the
// index), so the core attaches a KeyResolver and the pq store keeps only
// codes plus a small cache of the most recently inserted vectors (the
// likeliest re-rank targets under correlated feeds). Standalone — in
// tests, experiments, benchmarks — no resolver is attached and the store
// retains every vector itself: exactness is preserved, the memory win
// applies only when a resolver supplies the uncompressed copies.

// PQConfig parameterizes the product-quantized key store.
type PQConfig struct {
	// Subspaces is the number of sub-quantizers M (one code byte each).
	// 0 means one sub-quantizer per dimension — an 8x compression of
	// the float64 payload that keeps enough resolution to rank
	// within-cluster candidates at 10^5+ entries. Coarser settings
	// (dim/2, dim/4, ...) compress up to 32x but lose ranking
	// resolution inside dense clusters, costing recall at scale.
	Subspaces int
	// TrainSize is how many inserted vectors are buffered uncompressed
	// before the codebooks are trained. Until then the store is exact.
	TrainSize int
	// Iters is the number of Lloyd iterations per codebook.
	Iters int
	// Seed makes codebook training deterministic.
	Seed int64
	// KeepRecent bounds the uncompressed cache of recently inserted
	// vectors kept for re-ranking when a KeyResolver is attached (the
	// "small uncompressed cache"; without a resolver every vector is
	// retained and this is ignored).
	KeepRecent int
	// ReRank is how many top candidates (beyond k) are re-ranked with
	// exact distances after approximate scoring.
	ReRank int
}

// DefaultPQConfig returns parameters suited to the feature vectors of
// the paper's workloads (tens to hundreds of dimensions).
func DefaultPQConfig() PQConfig {
	return PQConfig{TrainSize: 4096, Iters: 6, Seed: 1, KeepRecent: 1024, ReRank: 64}
}

func (c PQConfig) withDefaults() PQConfig {
	d := DefaultPQConfig()
	if c.TrainSize <= 0 {
		c.TrainSize = d.TrainSize
	}
	if c.Iters <= 0 {
		c.Iters = d.Iters
	}
	if c.KeepRecent <= 0 {
		c.KeepRecent = d.KeepRecent
	}
	if c.ReRank <= 0 {
		c.ReRank = d.ReRank
	}
	return c
}

// KeyResolver supplies the exact stored vector for an id from outside
// the index — in the cache core, from the per-key-type members table.
// It is called with the same lock held that guards the index itself.
type KeyResolver func(id ID) (vec.Vector, bool)

// ResolverSetter is implemented by indexes whose key store can delegate
// exact-vector storage to the caller. The cache core attaches a resolver
// over its members table at registration, letting a PQ-backed store drop
// full vectors and keep only codes.
type ResolverSetter interface {
	SetKeyResolver(KeyResolver)
}

// MemoryReporter reports the in-memory footprint of an index's key
// storage, used by the memory-per-entry benchmarks and the space
// accounting in experiments.
type MemoryReporter interface {
	// KeyBytes returns the approximate bytes held to store key vectors
	// (codes, uncompressed buffers, and codebooks; graph/cell structure
	// overhead excluded).
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
					d += x * x
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
				d += x * x
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
	t := make([]float64, q.m*q.k)
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
					d += x * x
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

// vecStore abstracts how IVF holds its stored key vectors: the inserted
// keys, or PQ codes with exact re-rank. (HNSW keeps uncompressed keys
// in its node table and uses only the pqStore, directly.) Implementations
// are mutated only under the index's external write lock; a scorer is
// built per query and owns what it computes (the PQ distance table), so
// concurrent readers share no mutable state through the store.
type vecStore interface {
	// add stores v under id, borrowed as Index.Insert borrows it. Caller
	// guarantees id is not present.
	add(id ID, v vec.Vector)
	// remove drops id. Removing an absent id is a no-op.
	remove(id ID)
	// exact returns the exact stored vector for id.
	exact(id ID) (vec.Vector, bool)
	// scorer returns a per-query distance estimator in true metric
	// units (exact for flat storage, ADC estimate for PQ).
	scorer(q vec.Vector) func(id ID) float64
	// exactScorer reports whether scorer distances are already exact
	// (re-ranking may skip recomputation).
	exactScorer() bool
	// keyBytes approximates the bytes held for key storage.
	keyBytes() int64
}

// flatStore is the uncompressed store: the inserted keys, exact scoring.
type flatStore struct {
	metric vec.Metric
	euclid bool
	vecs   map[ID]vec.Vector
	bytes  int64
}

func newFlatStore(m vec.Metric) *flatStore {
	_, euclid := m.(vec.EuclideanMetric)
	return &flatStore{metric: m, euclid: euclid, vecs: make(map[ID]vec.Vector)}
}

func (f *flatStore) add(id ID, v vec.Vector) {
	f.vecs[id] = v
	f.bytes += int64(8 * len(v))
}

func (f *flatStore) remove(id ID) {
	if v, ok := f.vecs[id]; ok {
		f.bytes -= int64(8 * len(v))
		delete(f.vecs, id)
	}
}

func (f *flatStore) exact(id ID) (vec.Vector, bool) {
	v, ok := f.vecs[id]
	return v, ok
}

func (f *flatStore) scorer(q vec.Vector) func(id ID) float64 {
	return func(id ID) float64 {
		v, ok := f.vecs[id]
		if !ok {
			return math.Inf(1)
		}
		return f.metric.Distance(q, v)
	}
}

func (f *flatStore) exactScorer() bool { return true }
func (f *flatStore) keyBytes() int64   { return f.bytes }

// pqStore stores PQ codes for every entry plus uncompressed vectors for
// re-ranking: all of them when self-contained, or only the KeepRecent
// most recent when a KeyResolver supplies exact vectors externally.
// Every vector has one length, the first one's: the index that owns the
// store refuses any other before it gets here, and asks no query of
// another length.
type pqStore struct {
	metric   vec.Metric
	kind     adcKind
	cfg      PQConfig
	codec    *quantizer
	codes    map[ID][]byte
	full     map[ID]vec.Vector
	fullB    int64
	resolver KeyResolver
	// order is the insertion order of ids currently buffered for
	// training (pre-training), making codebooks deterministic.
	order []ID
	// recent is a FIFO of ids in full once bounded (resolver mode).
	recent  []ID
	dim     int
	trained bool
}

func newPQStore(m vec.Metric, cfg PQConfig) *pqStore {
	return &pqStore{
		metric: m,
		kind:   adcKindFor(m),
		cfg:    cfg.withDefaults(),
		codes:  make(map[ID][]byte),
		full:   make(map[ID]vec.Vector),
	}
}

func (p *pqStore) setResolver(r KeyResolver) {
	p.resolver = r
	if p.trained {
		p.shrinkFull()
	}
}

func (p *pqStore) addFull(id ID, v vec.Vector) {
	p.full[id] = v
	p.fullB += int64(8 * len(v))
}

func (p *pqStore) dropFull(id ID) {
	if v, ok := p.full[id]; ok {
		p.fullB -= int64(8 * len(v))
		delete(p.full, id)
	}
}

func (p *pqStore) add(id ID, v vec.Vector) {
	if !p.trained {
		p.addFull(id, v)
		p.order = append(p.order, id)
		if p.dim == 0 {
			p.dim = len(v)
		}
		if len(p.order) >= p.cfg.TrainSize {
			p.train()
		}
		return
	}
	p.codes[id] = p.codec.encode(v)
	if p.resolver == nil {
		p.addFull(id, v)
		return
	}
	p.addFull(id, v)
	p.recent = append(p.recent, id)
	for len(p.recent) > p.cfg.KeepRecent {
		victim := p.recent[0]
		p.recent = p.recent[1:]
		if victim != id {
			p.dropFull(victim)
		}
	}
}

// train fits the codec on the buffered vectors (insertion order, seeded
// — deterministic) and converts the buffer to codes.
func (p *pqStore) train() {
	samples := make([]vec.Vector, 0, len(p.order))
	ids := make([]ID, 0, len(p.order))
	for _, id := range p.order {
		if v, ok := p.full[id]; ok {
			samples = append(samples, v)
			ids = append(ids, id)
		}
	}
	if len(samples) == 0 {
		return
	}
	p.codec = trainQuantizer(samples, p.dim, p.cfg.Subspaces, p.cfg.Iters, p.cfg.Seed)
	for i, id := range ids {
		p.codes[id] = p.codec.encode(samples[i])
	}
	p.trained = true
	p.order = nil
	if p.resolver != nil {
		// Keep only the most recent KeepRecent uncompressed; the
		// resolver supplies the rest.
		for i, id := range ids {
			if len(ids)-i <= p.cfg.KeepRecent {
				p.recent = append(p.recent, id)
			} else {
				p.dropFull(id)
			}
		}
	}
}

// shrinkFull drops uncompressed vectors beyond the recent window once a
// resolver can supply them (called when a resolver is attached after
// training).
func (p *pqStore) shrinkFull() {
	if len(p.full) <= p.cfg.KeepRecent {
		return
	}
	keep := make(map[ID]struct{}, len(p.recent))
	for _, id := range p.recent {
		keep[id] = struct{}{}
	}
	for id, v := range p.full {
		if _, ok := keep[id]; ok {
			continue
		}
		p.fullB -= int64(8 * len(v))
		delete(p.full, id)
	}
}

func (p *pqStore) remove(id ID) {
	delete(p.codes, id)
	p.dropFull(id)
	for i, oid := range p.order {
		if oid == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

func (p *pqStore) exact(id ID) (vec.Vector, bool) {
	if v, ok := p.full[id]; ok {
		return v, true
	}
	if p.resolver != nil {
		if v, ok := p.resolver(id); ok {
			return v, true
		}
	}
	// Last resort: centroid reconstruction. Reached only if a resolver
	// was promised but cannot supply the id (never the case in the
	// cache core, where members outlives the index entry).
	if code, ok := p.codes[id]; ok && p.codec != nil {
		return p.codec.decode(code), true
	}
	return nil, false
}

func (p *pqStore) scorer(q vec.Vector) func(id ID) float64 {
	if !p.trained {
		return func(id ID) float64 {
			v, ok := p.exact(id)
			if !ok {
				return math.Inf(1)
			}
			return p.metric.Distance(q, v)
		}
	}
	if p.kind == adcDecode {
		return func(id ID) float64 {
			if code, ok := p.codes[id]; ok {
				return p.metric.Distance(q, p.codec.decode(code))
			}
			v, ok := p.exact(id)
			if !ok {
				return math.Inf(1)
			}
			return p.metric.Distance(q, v)
		}
	}
	table := p.codec.adcTable(q, p.kind)
	k := p.codec.k
	kind := p.kind
	return func(id ID) float64 {
		if code, ok := p.codes[id]; ok {
			return adcScore(table, code, k, kind)
		}
		v, ok := p.exact(id)
		if !ok {
			return math.Inf(1)
		}
		return p.metric.Distance(q, v)
	}
}

func (p *pqStore) exactScorer() bool { return !p.trained }

func (p *pqStore) keyBytes() int64 {
	b := p.fullB
	for _, c := range p.codes {
		b += int64(len(c))
	}
	if p.codec != nil {
		for _, book := range p.codec.books {
			b += int64(8 * len(book))
		}
	}
	return b
}

// reRank converts scorer-estimated candidates into exact results: the
// top k+extra candidates by estimate are re-scored with the true metric
// against uncompressed vectors, sorted by (distance, id) and cut to k.
// With an exact scorer the recomputation is skipped. This is what keeps
// approximate kinds' returned Dist values truthful for threshold
// decisions.
func reRank(st vecStore, metric vec.Metric, q vec.Vector, cands []Neighbor, k, extra int) []Neighbor {
	sortNeighbors(cands)
	if st.exactScorer() {
		if len(cands) > k {
			cands = cands[:k]
		}
		// Keys may be absent when scoring skipped exact vectors.
		for i := range cands {
			if cands[i].Key == nil {
				if v, ok := st.exact(cands[i].ID); ok {
					cands[i].Key = v
				}
			}
		}
		return cands
	}
	if len(cands) > k+extra {
		cands = cands[:k+extra]
	}
	for i := range cands {
		v, ok := st.exact(cands[i].ID)
		if !ok {
			cands[i].Dist = math.Inf(1)
			continue
		}
		cands[i].Key = v
		cands[i].Dist = metric.Distance(q, v)
	}
	sortNeighbors(cands)
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}
