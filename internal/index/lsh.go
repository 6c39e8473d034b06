package index

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"repro/internal/vec"
)

// LSHConfig parameterizes the locality-sensitive hash index.
type LSHConfig struct {
	// Tables is the number of independent hash tables (L). More tables
	// increase recall at the cost of memory and insert time.
	Tables int
	// Hashes is the number of concatenated hash functions per table (k).
	// More hashes make buckets more selective.
	Hashes int
	// BucketWidth is the quantization width w of the p-stable scheme.
	// Wider buckets group more distant points together.
	BucketWidth float64
	// Seed makes the random projections deterministic.
	Seed int64
}

// DefaultLSHConfig returns parameters that work well for the feature
// vectors used in the paper's experiments (hundreds of dimensions,
// L2-normalized histograms and descriptors).
func DefaultLSHConfig() LSHConfig {
	return LSHConfig{Tables: 8, Hashes: 6, BucketWidth: 4, Seed: 1}
}

// LSH is a locality-sensitive hash index based on p-stable (Gaussian)
// projections (Datar et al., cited as [16] in the paper). Queries probe
// the buckets the query key hashes into and rank candidates exactly; this
// gives sub-linear lookups that "scale well with an increasing cache
// size" (Table 2). Nearest is approximate: if no candidate shares a
// bucket, LSH falls back to scanning so that the cache never misses
// merely because of unlucky hashing.
type LSH struct {
	probeCounter
	metric vec.Metric
	cfg    LSHConfig
	// dim is every key's length, the first key's: Insert refuses any
	// other, and a query of another length finds nothing.
	dim int
	// projections[t][h] is one random direction plus offset, sized from
	// the first inserted key (nil until then).
	projections [][]projection
	tables      []map[string][]ID
	keys        map[ID]vec.Vector
	buckets     map[ID][]string // per-table bucket of each id for removal
}

type projection struct {
	dir    vec.Vector
	offset float64
}

// NewLSH returns an empty LSH index. It sizes its projections from the
// first inserted key, so an index that is never written allocates none.
func NewLSH(m vec.Metric, cfg LSHConfig) *LSH {
	if cfg.Tables <= 0 {
		cfg.Tables = DefaultLSHConfig().Tables
	}
	if cfg.Hashes <= 0 {
		cfg.Hashes = DefaultLSHConfig().Hashes
	}
	if cfg.BucketWidth <= 0 {
		cfg.BucketWidth = DefaultLSHConfig().BucketWidth
	}
	l := &LSH{
		metric:  m,
		cfg:     cfg,
		keys:    make(map[ID]vec.Vector),
		buckets: make(map[ID][]string),
		tables:  make([]map[string][]ID, cfg.Tables),
	}
	for i := range l.tables {
		l.tables[i] = make(map[string][]ID)
	}
	return l
}

func (l *LSH) initProjections(dim int) {
	l.dim = dim
	rng := rand.New(rand.NewSource(l.cfg.Seed))
	l.projections = make([][]projection, l.cfg.Tables)
	for t := range l.projections {
		hs := make([]projection, l.cfg.Hashes)
		for h := range hs {
			dir := make(vec.Vector, dim)
			for d := range dir {
				dir[d] = rng.NormFloat64()
			}
			hs[h] = projection{dir: dir, offset: rng.Float64() * l.cfg.BucketWidth}
		}
		l.projections[t] = hs
	}
}

func (l *LSH) bucketKey(table int, key vec.Vector) string {
	hs := l.projections[table]
	buf := make([]byte, 0, len(hs)*4)
	for _, p := range hs {
		var dot float64
		for i := range key {
			dot += float64(key[i] * p.dir[i])
		}
		b := int32(math.Floor((dot + p.offset) / l.cfg.BucketWidth))
		buf = append(buf, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
	}
	return string(buf)
}

// Insert implements Index.
func (l *LSH) Insert(id ID, key vec.Vector) error {
	switch {
	case len(key) == 0:
		return ErrEmptyKey
	case l.projections != nil && len(key) != l.dim:
		return vec.ErrDimensionMismatch
	}
	if _, ok := l.keys[id]; ok {
		l.Remove(id)
	}
	if l.projections == nil {
		l.initProjections(len(key))
	}
	l.keys[id] = key
	bks := make([]string, l.cfg.Tables)
	for t := range l.tables {
		bk := l.bucketKey(t, key)
		bks[t] = bk
		l.tables[t][bk] = append(l.tables[t][bk], id)
	}
	l.buckets[id] = bks
	return nil
}

// Remove implements Index.
func (l *LSH) Remove(id ID) {
	bks, ok := l.buckets[id]
	if !ok {
		return
	}
	for t, bk := range bks {
		ids := l.tables[t][bk]
		for i, x := range ids {
			if x == id {
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				break
			}
		}
		if len(ids) == 0 {
			delete(l.tables[t], bk)
		} else {
			l.tables[t][bk] = ids
		}
	}
	delete(l.buckets, id)
	delete(l.keys, id)
}

// candidates gathers the ids sharing any bucket with key: none for a key
// of another length.
func (l *LSH) candidates(key vec.Vector) map[ID]struct{} {
	out := make(map[ID]struct{})
	if l.projections == nil || len(key) != l.dim {
		return out
	}
	for t := range l.tables {
		for _, id := range l.tables[t][l.bucketKey(t, key)] {
			out[id] = struct{}{}
		}
	}
	return out
}

// Nearest implements Index.
func (l *LSH) Nearest(key vec.Vector) (Neighbor, bool) {
	res := l.KNearest(key, 1)
	if len(res) == 0 {
		return Neighbor{}, false
	}
	return res[0], true
}

// NearestWithin implements Index: the probe count is the candidate set
// size (post full-scan fallback when hashing came up short).
func (l *LSH) NearestWithin(key vec.Vector, r float64) (Neighbor, int, bool) {
	res, probes := l.KNearestProbed(key, 1)
	if len(res) == 0 {
		return Neighbor{}, probes, false
	}
	return within(res[0], probes, true, r)
}

// KNearest implements Index.
func (l *LSH) KNearest(key vec.Vector, k int) []Neighbor {
	ns, _ := l.KNearestProbed(key, k)
	return ns
}

// KNearestProbed implements Index.
func (l *LSH) KNearestProbed(key vec.Vector, k int) ([]Neighbor, int) {
	if k <= 0 || len(l.keys) == 0 || len(key) != l.dim {
		return nil, 0
	}
	cand := l.candidates(key)
	if len(cand) < k {
		// Fallback: scan everything so the cache never loses an entry to
		// unlucky hashing. This keeps LSH results a superset of what
		// bucket probing alone would return.
		for id := range l.keys {
			cand[id] = struct{}{}
		}
	}
	l.countQuery(len(cand))
	best := make([]Neighbor, 0, len(cand))
	for id := range cand {
		kv := l.keys[id]
		best = append(best, Neighbor{ID: id, Key: kv, Dist: l.metric.Distance(key, kv)})
	}
	sortNeighbors(best)
	if len(best) > k {
		best = best[:k]
	}
	return best, len(cand)
}

func sortNeighbors(ns []Neighbor) {
	// Insertion sort for the small candidate sets LSH produces by
	// design; comparison sort beyond that (IVF cell scans and LSH
	// fallback buckets reach thousands of candidates, where insertion
	// sort's quadratic cost dominates the whole query). less() is a
	// total order (Dist, then ID), so the result is deterministic
	// either way.
	if len(ns) > 48 {
		slices.SortFunc(ns, func(a, b Neighbor) int {
			return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
		})
		return
	}
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && less(ns[j], ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func less(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// Len implements Index.
func (l *LSH) Len() int { return len(l.keys) }

// Metric implements Index.
func (l *LSH) Metric() vec.Metric { return l.metric }

// Kind implements Index.
func (l *LSH) Kind() Kind { return KindLSH }

// ProbeOnly returns the neighbours found by bucket probing alone, without
// the full-scan fallback. Experiments use it to measure pure LSH lookup
// latency (Table 2); production lookups use KNearest.
func (l *LSH) ProbeOnly(key vec.Vector, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	cand := l.candidates(key)
	l.countQuery(len(cand))
	best := make([]Neighbor, 0, len(cand))
	for id := range cand {
		kv := l.keys[id]
		best = append(best, Neighbor{ID: id, Key: kv, Dist: l.metric.Distance(key, kv)})
	}
	sortNeighbors(best)
	if len(best) > k {
		best = best[:k]
	}
	return best
}
