package index

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"repro/internal/vec"
)

// IVF is an inverted-file index, the coarse-quantization half of ROADMAP
// item 3: a k-means-lite coarse quantizer (trained online from the first
// TrainAfter inserts, seeded and deterministic) partitions the key space
// into cells; each stored entry lives in the member list of its nearest
// centroid, and a query scans only the NProbe nearest cells instead of
// every entry. Until training, the index is an exact linear scan — small
// deployments never pay for approximation they don't need.
//
// Returned distances are exact: candidates found by cell scans are
// re-ranked against uncompressed vectors (see reRank), so approximation
// affects WHICH entries are considered, never the distance a threshold
// decision sees.
//
// Like every other kind, IVF is not internally synchronized: the cache
// guards it with a per-key-type RWMutex. Queries draw their cell ranking
// and candidate buffer from a pool (see scratchPool), so any number of
// readers may search concurrently under RLock while mutations take the
// write lock.
type IVF struct {
	probeCounter
	scratchPool
	metric vec.Metric
	cfg    IVFConfig
	store  vecStore
	// pending holds ids inserted before training (scanned linearly).
	pending map[ID]struct{}
	order   []ID // insertion order of pending ids (training determinism)
	// trained state
	centroids []vec.Vector
	cells     [][]ID
	// cellRadius[c] is an upper bound on the distance from centroid c to
	// any member (stale after removals — still a valid upper bound).
	cellRadius []float64
	cellOf     map[ID]int
	dim        int  // every key's length, the first key's; Insert refuses any other
	triangle   bool // metric satisfies the triangle inequality
}

// IVFConfig parameterizes the inverted file.
type IVFConfig struct {
	// Cells is the number of coarse cells (k-means centroids).
	Cells int
	// NProbe is how many nearest cells a query scans. Queries expand
	// beyond NProbe only when they would otherwise return fewer than k
	// results.
	NProbe int
	// TrainAfter is how many inserts are buffered (and scanned exactly)
	// before the coarse quantizer is trained.
	TrainAfter int
	// Iters is the number of Lloyd iterations for centroid training.
	Iters int
	// Seed makes training deterministic: the same insert sequence always
	// builds the same cells (crash recovery replays puts in log order
	// and must answer identically).
	Seed int64
}

// DefaultIVFConfig returns parameters giving recall@1 >= 0.95 on the
// correlated feature-vector workloads the cache serves.
func DefaultIVFConfig() IVFConfig {
	return IVFConfig{Cells: 256, NProbe: 16, TrainAfter: 4096, Iters: 5, Seed: 1}
}

func (c IVFConfig) withDefaults() IVFConfig {
	d := DefaultIVFConfig()
	if c.Cells <= 0 {
		c.Cells = d.Cells
	}
	if c.NProbe <= 0 {
		c.NProbe = d.NProbe
	}
	if c.TrainAfter <= 0 {
		c.TrainAfter = d.TrainAfter
	}
	if c.Iters <= 0 {
		c.Iters = d.Iters
	}
	return c
}

// NewIVF returns an empty IVF index with uncompressed key storage.
func NewIVF(m vec.Metric, cfg IVFConfig) *IVF {
	return newIVF(m, cfg, newFlatStore(m))
}

// NewIVFPQ returns an empty IVF index whose keys are stored as
// product-quantization codes (see pq.go): cell scans score candidates
// via asymmetric distance tables and the top candidates are re-ranked
// exactly.
func NewIVFPQ(m vec.Metric, cfg IVFConfig, pq PQConfig) *IVF {
	return newIVF(m, cfg, newPQStore(m, pq))
}

func newIVF(m vec.Metric, cfg IVFConfig, store vecStore) *IVF {
	_, e := m.(vec.EuclideanMetric)
	_, mh := m.(vec.ManhattanMetric)
	_, ch := m.(vec.ChebyshevMetric)
	return &IVF{
		metric:   m,
		cfg:      cfg.withDefaults(),
		store:    store,
		pending:  make(map[ID]struct{}),
		cellOf:   make(map[ID]int),
		triangle: e || mh || ch,
	}
}

// KeyBytes implements MemoryReporter.
func (iv *IVF) KeyBytes() int64 { return iv.store.keyBytes() }

// Insert implements Index.
func (iv *IVF) Insert(id ID, key vec.Vector) error {
	switch {
	case len(key) == 0:
		return ErrEmptyKey
	case iv.dim == 0:
		iv.dim = len(key)
	case len(key) != iv.dim:
		return vec.ErrDimensionMismatch
	}
	iv.Remove(id)
	iv.store.add(id, key)
	if iv.centroids == nil {
		iv.pending[id] = struct{}{}
		iv.order = append(iv.order, id)
		if len(iv.order) >= iv.cfg.TrainAfter {
			iv.train()
		}
		return nil
	}
	iv.assign(id, key)
	return nil
}

// assign places an entry into its nearest cell and widens that cell's
// radius bound.
func (iv *IVF) assign(id ID, key vec.Vector) {
	best, bestD := 0, math.Inf(1)
	for c, cent := range iv.centroids {
		if d := iv.metric.Distance(key, cent); d < bestD {
			best, bestD = c, d
		}
	}
	iv.cells[best] = append(iv.cells[best], id)
	iv.cellOf[id] = best
	if bestD > iv.cellRadius[best] {
		iv.cellRadius[best] = bestD
	}
}

// train fits the coarse quantizer on the buffered entries (insertion
// order, seeded — deterministic) and distributes every entry to a cell.
func (iv *IVF) train() {
	samples := make([]vec.Vector, 0, len(iv.order))
	ids := make([]ID, 0, len(iv.order))
	for _, id := range iv.order {
		if v, ok := iv.store.exact(id); ok {
			samples = append(samples, v)
			ids = append(ids, id)
		}
	}
	if len(samples) == 0 {
		return
	}
	k := iv.cfg.Cells
	if k > len(samples) {
		k = len(samples)
	}
	iv.centroids = kmeansCentroids(samples, iv.dim, k, iv.cfg.Iters, iv.cfg.Seed)
	iv.cells = make([][]ID, len(iv.centroids))
	iv.cellRadius = make([]float64, len(iv.centroids))
	for i, id := range ids {
		iv.assign(id, samples[i])
	}
	iv.pending = make(map[ID]struct{})
	iv.order = nil
}

// kmeansCentroids runs seeded k-means-lite over full vectors: sampled
// initial centroids, Iters Lloyd rounds, dead cells re-seeded.
func kmeansCentroids(samples []vec.Vector, dim, k, iters int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	cents := make([]vec.Vector, k)
	for c := range cents {
		cents[c] = samples[rng.Intn(len(samples))].Clone()
	}
	counts := make([]int, k)
	sums := make([]vec.Vector, k)
	for c := range sums {
		sums[c] = make(vec.Vector, dim)
	}
	for it := 0; it < iters; it++ {
		for c := range cents {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for _, v := range samples {
			best, bestD := 0, math.Inf(1)
			for c, cent := range cents {
				var d float64
				for j := 0; j < dim; j++ {
					x := v[j] - cent[j]
					d += x * x
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			counts[best]++
			for j := 0; j < dim; j++ {
				sums[best][j] += v[j]
			}
		}
		for c := range cents {
			if counts[c] == 0 {
				cents[c] = samples[rng.Intn(len(samples))].Clone()
				continue
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < dim; j++ {
				cents[c][j] = sums[c][j] * inv
			}
		}
	}
	return cents
}

// Remove implements Index: drop the entry from its cell member list. The
// cell radius bound is left as is (removal can only shrink the true
// radius, so the stale bound stays valid).
func (iv *IVF) Remove(id ID) {
	if _, ok := iv.pending[id]; ok {
		delete(iv.pending, id)
		for i, oid := range iv.order {
			if oid == id {
				iv.order = append(iv.order[:i], iv.order[i+1:]...)
				break
			}
		}
		iv.store.remove(id)
		return
	}
	c, ok := iv.cellOf[id]
	if !ok {
		return
	}
	delete(iv.cellOf, id)
	members := iv.cells[c]
	for i, mid := range members {
		if mid == id {
			iv.cells[c] = append(members[:i], members[i+1:]...)
			break
		}
	}
	iv.store.remove(id)
}

// cellDist is one cell ranked by query-to-centroid distance.
type cellDist struct {
	cell int
	dist float64
}

// rankCells orders all cells by distance from the query, in sc.
func (iv *IVF) rankCells(sc *scratch, key vec.Vector) []cellDist {
	ranked := sc.cells[:0]
	for c, cent := range iv.centroids {
		ranked = append(ranked, cellDist{c, iv.metric.Distance(key, cent)})
	}
	sc.cells = ranked
	slices.SortFunc(ranked, func(a, b cellDist) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.cell, b.cell))
	})
	return ranked
}

// Nearest implements Index.
func (iv *IVF) Nearest(key vec.Vector) (Neighbor, bool) {
	n, _, ok := iv.NearestWithin(key, math.Inf(1))
	return n, ok
}

// NearestWithin implements Index.
func (iv *IVF) NearestWithin(key vec.Vector, r float64) (Neighbor, int, bool) {
	if iv.Len() == 0 || len(key) != iv.dim {
		return Neighbor{}, 0, false
	}
	sc := iv.get()
	defer iv.put(sc)
	res, probes := iv.query(sc, key, 1)
	if len(res) == 0 {
		return Neighbor{}, probes, false
	}
	return within(res[0], probes, true, r)
}

// KNearest implements Index.
func (iv *IVF) KNearest(key vec.Vector, k int) []Neighbor {
	ns, _ := iv.KNearestProbed(key, k)
	return ns
}

// KNearestProbed implements Index: probes count centroid
// comparisons plus scanned cell members. If the NProbe nearest cells
// hold fewer than k entries the scan widens until k are found or every
// cell has been read, so small or skewed indexes never return short.
func (iv *IVF) KNearestProbed(key vec.Vector, k int) ([]Neighbor, int) {
	if k <= 0 || iv.Len() == 0 || len(key) != iv.dim {
		return nil, 0
	}
	sc := iv.get()
	defer iv.put(sc)
	res, probes := iv.query(sc, key, k)
	return cloneNeighbors(res), probes
}

// query answers one k-NN search on a non-empty index. The neighbours it
// returns live in sc.
func (iv *IVF) query(sc *scratch, key vec.Vector, k int) ([]Neighbor, int) {
	visited := 0
	score := iv.store.scorer(key)
	cands := sc.found[:0]
	if iv.centroids == nil {
		for id := range iv.pending {
			cands = append(cands, Neighbor{ID: id, Dist: score(id)})
			visited++
		}
	} else {
		visited += len(iv.centroids) // each centroid comparison is a probe
		scanned := 0
		for _, rc := range iv.rankCells(sc, key) {
			if scanned >= iv.cfg.NProbe && len(cands) >= k {
				break
			}
			for _, id := range iv.cells[rc.cell] {
				cands = append(cands, Neighbor{ID: id, Dist: score(id)})
			}
			visited += len(iv.cells[rc.cell])
			scanned++
		}
	}
	sc.found = cands
	iv.countQuery(visited)
	extra := 0
	if pq, ok := iv.store.(*pqStore); ok {
		extra = pq.cfg.ReRank
	}
	return reRank(iv.store, iv.metric, key, cands, k, extra), visited
}

// Radius implements RadiusSearcher. For metrics satisfying the triangle
// inequality the scan is exact: a cell can hold an entry within r of the
// query only if dist(query, centroid) <= r + cellRadius, so all other
// cells are skipped. For other metrics (cosine) every cell is scanned.
// Distances are re-ranked exactly before the radius cut, so no
// out-of-radius result is ever returned.
func (iv *IVF) Radius(key vec.Vector, r float64) []Neighbor {
	if iv.Len() == 0 || len(key) != iv.dim {
		return nil
	}
	visited := 0
	score := iv.store.scorer(key)
	var cands []Neighbor
	if iv.centroids == nil {
		for id := range iv.pending {
			cands = append(cands, Neighbor{ID: id, Dist: score(id)})
			visited++
		}
	} else {
		for c, cent := range iv.centroids {
			visited++
			if iv.triangle && iv.metric.Distance(key, cent) > r+iv.cellRadius[c] {
				continue
			}
			for _, id := range iv.cells[c] {
				cands = append(cands, Neighbor{ID: id, Dist: score(id)})
			}
			visited += len(iv.cells[c])
		}
	}
	iv.countQuery(visited)
	extra := 0
	if pq, ok := iv.store.(*pqStore); ok {
		extra = pq.cfg.ReRank
	}
	res := reRank(iv.store, iv.metric, key, cands, len(cands), extra)
	cut := len(res)
	for i, n := range res {
		if n.Dist > r {
			cut = i
			break
		}
	}
	return res[:cut]
}

// Len implements Index.
func (iv *IVF) Len() int { return len(iv.pending) + len(iv.cellOf) }

// Metric implements Index.
func (iv *IVF) Metric() vec.Metric { return iv.metric }

// Kind implements Index.
func (iv *IVF) Kind() Kind {
	if _, ok := iv.store.(*pqStore); ok {
		return KindIVFPQ
	}
	return KindIVF
}
