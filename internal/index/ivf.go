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
// Each cell list, and the list of entries not yet trained, holds its
// members' ids beside the keys Insert was given, so a scan scores each
// key where it lies. Returned distances are exact: approximation affects
// WHICH entries are considered, never the distance a threshold decision
// sees.
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
	// pending holds the entries inserted before training, in insertion
	// order (the training sample's, for determinism), scanned linearly.
	pending []member
	// trained state
	centroids []vec.Vector
	cells     [][]member
	// cellOf maps every stored id to its cell, or to -1 while pending.
	cellOf map[ID]int
	dim    int // every key's length, the first key's; Insert refuses any other
}

// member is one stored entry: its id and the key Insert was given,
// borrowed and never written.
type member struct {
	id  ID
	key vec.Vector
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

// NewIVF returns an empty IVF index.
func NewIVF(m vec.Metric, cfg IVFConfig) *IVF {
	return &IVF{
		metric: m,
		cfg:    cfg.withDefaults(),
		cellOf: make(map[ID]int),
	}
}

// KeyBytes implements MemoryReporter: the keys the index borrows,
// counted as its own at 8 bytes a dimension.
func (iv *IVF) KeyBytes() int64 { return int64(8 * iv.dim * iv.Len()) }

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
	if iv.centroids == nil {
		iv.pending = append(iv.pending, member{id, key})
		iv.cellOf[id] = -1
		if len(iv.pending) >= iv.cfg.TrainAfter {
			iv.train()
		}
		return nil
	}
	iv.assign(member{id, key})
	return nil
}

// assign places an entry into its nearest cell.
func (iv *IVF) assign(m member) {
	best, bestD := 0, math.Inf(1)
	for c, cent := range iv.centroids {
		if d := iv.metric.Distance(m.key, cent); d < bestD {
			best, bestD = c, d
		}
	}
	iv.cells[best] = append(iv.cells[best], m)
	iv.cellOf[m.id] = best
}

// train fits the coarse quantizer on the buffered entries (insertion
// order, seeded — deterministic) and distributes every entry to a cell.
// The quantizer is PQ's k-means over one subspace as wide as the key:
// each centroid is a view into the one codebook.
func (iv *IVF) train() {
	samples := make([]vec.Vector, len(iv.pending))
	for i, m := range iv.pending {
		samples[i] = m.key
	}
	k, w := min(iv.cfg.Cells, len(samples)), iv.dim
	book := trainCodebook(samples, 0, w, k, iv.cfg.Iters, rand.New(rand.NewSource(iv.cfg.Seed)))
	iv.centroids = make([]vec.Vector, k)
	for c := range iv.centroids {
		iv.centroids[c] = book[c*w : (c+1)*w : (c+1)*w]
	}
	iv.cells = make([][]member, len(iv.centroids))
	for _, m := range iv.pending {
		iv.assign(m)
	}
	iv.pending = nil
}

// Remove implements Index: drop the entry from its cell member list.
func (iv *IVF) Remove(id ID) {
	c, ok := iv.cellOf[id]
	if !ok {
		return
	}
	delete(iv.cellOf, id)
	list := &iv.pending
	if c >= 0 {
		list = &iv.cells[c]
	}
	*list = slices.DeleteFunc(*list, func(m member) bool { return m.id == id })
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

// KNearest implements Index: probes count centroid
// comparisons plus scanned cell members. If the NProbe nearest cells
// hold fewer than k entries the scan widens until k are found or every
// cell has been read, so small or skewed indexes never return short.
func (iv *IVF) KNearest(key vec.Vector, k int) ([]Neighbor, int) {
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
	cands := sc.found[:0]
	if iv.centroids == nil {
		cands = iv.scan(cands, key, iv.pending)
		visited += len(iv.pending)
	} else {
		visited += len(iv.centroids) // each centroid comparison is a probe
		scanned := 0
		for _, rc := range iv.rankCells(sc, key) {
			if scanned >= iv.cfg.NProbe && len(cands) >= k {
				break
			}
			cands = iv.scan(cands, key, iv.cells[rc.cell])
			visited += len(iv.cells[rc.cell])
			scanned++
		}
	}
	sc.found = cands
	iv.countQuery(visited)
	sortNeighbors(cands)
	return cands[:min(k, len(cands))], visited
}

// scan appends every member of list to cands, scored against key.
func (iv *IVF) scan(cands []Neighbor, key vec.Vector, list []member) []Neighbor {
	for _, m := range list {
		cands = append(cands, Neighbor{ID: m.id, Key: m.key, Dist: iv.metric.Distance(key, m.key)})
	}
	return cands
}

// Len implements Index.
func (iv *IVF) Len() int { return len(iv.cellOf) }

// Metric implements Index.
func (iv *IVF) Metric() vec.Metric { return iv.metric }

// Kind implements Index.
func (iv *IVF) Kind() Kind { return KindIVF }
