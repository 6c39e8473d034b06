package index

import (
	"math"

	"repro/internal/vec"
)

// The key stores the HNSW and IVF kinds were built on before each kind
// kept its keys in a layout of its own: oracleHNSW (hnsw_oracle_test.go)
// still keeps its keys in one, so the differential test replays every
// stream against the stores as they were.

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

// pqStore stores a PQ code for every entry beside the key it borrows
// for re-ranking. Until TrainSize keys have arrived it holds keys only
// and scores exactly. Every vector has one length, the first one's: the
// index that owns the store refuses any other before it gets here, and
// asks no query of another length.
type pqStore struct {
	metric vec.Metric
	form   vec.Form
	cfg    PQConfig
	codec  *quantizer
	codes  map[ID][]byte
	keys   map[ID]vec.Vector
	// order is the insertion order of ids currently buffered for
	// training (pre-training), making codebooks deterministic.
	order   []ID
	dim     int
	trained bool
}

func newPQStore(m vec.Metric, cfg PQConfig) *pqStore {
	return &pqStore{
		metric: m,
		form:   vec.FormOf(m),
		cfg:    cfg.withDefaults(),
		codes:  make(map[ID][]byte),
		keys:   make(map[ID]vec.Vector),
	}
}

func (p *pqStore) add(id ID, v vec.Vector) {
	p.keys[id] = v
	if p.trained {
		p.codes[id] = p.codec.encode(v)
		return
	}
	p.order = append(p.order, id)
	if p.dim == 0 {
		p.dim = len(v)
	}
	if len(p.order) >= p.cfg.TrainSize {
		p.train()
	}
}

// train fits the codec on the buffered keys (insertion order, seeded
// — deterministic) and encodes each of them.
func (p *pqStore) train() {
	samples := make([]vec.Vector, len(p.order))
	for i, id := range p.order {
		samples[i] = p.keys[id]
	}
	p.codec = trainQuantizer(samples, p.dim, p.cfg.Subspaces, p.cfg.Iters, p.cfg.Seed)
	for i, id := range p.order {
		p.codes[id] = p.codec.encode(samples[i])
	}
	p.trained = true
	p.order = nil
}

func (p *pqStore) remove(id ID) {
	delete(p.codes, id)
	delete(p.keys, id)
	for i, oid := range p.order {
		if oid == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

func (p *pqStore) exact(id ID) (vec.Vector, bool) {
	v, ok := p.keys[id]
	return v, ok
}

func (p *pqStore) scorer(q vec.Vector) func(id ID) float64 {
	if !p.trained {
		return func(id ID) float64 {
			v, ok := p.keys[id]
			if !ok {
				return math.Inf(1)
			}
			return p.metric.Distance(q, v)
		}
	}
	if p.form == vec.FormOther {
		return func(id ID) float64 {
			code, ok := p.codes[id]
			if !ok {
				return math.Inf(1)
			}
			return p.metric.Distance(q, p.codec.decode(code))
		}
	}
	table := p.codec.adcTable(q, p.metric, p.form)
	k := p.codec.k
	form := p.form
	return func(id ID) float64 {
		code, ok := p.codes[id]
		if !ok {
			return math.Inf(1)
		}
		return adcScore(table, code, k, form)
	}
}

func (p *pqStore) exactScorer() bool { return !p.trained }

func (p *pqStore) keyBytes() int64 {
	if !p.trained {
		return int64(8 * p.dim * len(p.keys))
	}
	b := int64(p.codec.m * len(p.codes))
	for _, book := range p.codec.books {
		b += int64(8 * len(book))
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
