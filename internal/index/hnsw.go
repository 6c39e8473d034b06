package index

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/vec"
)

// HNSW is a hierarchical navigable-small-world graph index (Malkov &
// Yashunin), the graph-based ANN structure of ROADMAP item 3: greedy
// descent through sparse upper layers finds an entry region, a bounded
// best-first search over the dense bottom layer collects candidates, and
// probe work grows roughly logarithmically with the entry count instead
// of linearly. Results are re-ranked with exact distances (see answer),
// so approximation affects WHICH neighbours are found, never the
// distance values a threshold decision sees.
//
// A caller that can use only a neighbour within r (NearestWithin, as
// core's lookup and put probes ask once the threshold tuner is active)
// gets a search that stops widening once it holds one: on a clustered
// workload the query's own cluster answers it, and the rest of the
// efSearch-wide pool, filled from clusters far beyond r, is never
// scored. It finds an answer within r for exactly the queries the
// unbounded search does, though now and then a farther one. Only exact
// scores are bounded: under PQ an estimate beyond r does not show the
// true distance is, so that search runs unbounded and is filtered.
//
// A miss with nothing within r would still pay the whole efSearch-wide
// search, so with or without PQ HNSW keeps the box of every key inserted
// since it was last empty, widened by Insert and left as it is by
// Remove: a box that may be larger than the live keys need, never
// smaller. When the box lies farther than r from a query, by the k-d
// tree's cut (see boxNorm.outside), no key can lie within r, and
// NearestWithin and Radius answer "none" without scoring a node: one
// query of zero probes. r = +Inf, and a metric no box bounds, never
// certify, so Insert, KNearest and the unbounded probes search as before.
//
// Removal is tombstone-based: a removed node keeps routing traffic until
// an amortized re-link pass (a few nodes per mutation, under the write
// lock the cache already holds) splices its live neighbours together and
// frees it. Eviction/expiry churn therefore degrades neither recall nor
// memory: dead nodes are bounded by the repair queue, which drains at
// RepairBudget nodes per subsequent mutation.
//
// The graph is a dense node table: a node lives in a slot, link lists
// hold slots, and what a search reads of a node it scores or expands
// sits in flat arrays indexed by slot: id, level and tombstone flag in
// per-slot columns, the key as a row of one []float64 (under PQ, once
// trained, its code as a row of one []byte instead), the layer-0 links
// in one []int32 of fixed stride. Only the key Insert was given, the
// upper layers' links and the reference count stay in the node's row.
// The id-to-slot map is read only by Insert and Remove. Slots are
// recycled, newest first, so the same insert and remove sequence always
// lays the table out the same way.
//
// Like every other kind, HNSW is not internally synchronized: the cache
// guards it with a per-key-type RWMutex. Queries draw their visited
// stamps and heaps from a pool (see scratchPool), so any number of
// readers may search concurrently under RLock; mutations take the write
// lock and own the mut scratch. The table cannot grow during a search.
type HNSW struct {
	probeCounter
	scratchPool
	metric  vec.Metric
	norm    boxNorm
	cfg     HNSWConfig
	ids     []ID
	levels  []int8 // vacant when negative
	deleted []bool // tombstoned: still routes, is never reported
	held    int    // occupied slots: live nodes and tombstones not yet re-linked
	// width is every key's length, the first key's: Insert refuses any
	// other, and a query of another length finds nothing. rows holds slot
	// s's key at rows[s*width:][:width]; it is empty under PQ.
	width int
	rows  []float64
	// pq is nil except under PQ (NewHNSWPQ). Until TrainSize keys have
	// arrived, sample holds the occupied slots in insertion order, the
	// codec's training sample, and the graph scores the nodes' keys
	// exactly; from then on codes holds slot s's code at
	// codes[s*codec.m:][:codec.m], and the graph scores those.
	pq     *PQConfig
	sample []int32
	codec  *quantizer
	codes  []byte
	// lo and hi are the least and greatest coordinate, axis by axis, of
	// every key inserted since the graph was last empty.
	lo, hi []float64
	// links0 holds slot s's layer-0 links at links0[s*stride:]: their
	// count, then room for 2M+1 slots, one more than a list may keep, for
	// the entry addLink appends before it trims.
	links0   []int32
	stride   int
	nodes    []hnswNode
	slotOf   map[ID]int32
	free     []int32 // vacant slots nothing links to, reused last-in first-out
	entry    int32   // slot of the highest-level live node; -1 when there is none
	maxLevel int
	rng      *rand.Rand
	levelMul float64
	repairQ  []ID // tombstoned nodes awaiting re-link
	live     int
	mut      struct {
		search       *scratch
		cands        []scored     // trimLinks' sorted candidates
		kept         []vec.Vector // selectFromSorted's diverse picks
		merged, pick []int32      // relink's spliced list; the selection
		pruned       []int32
	}
}

// hnswNode is what the node table keeps of a node outside the flat
// arrays. Freeing a node leaves links to it dangling in nodes it had
// stopped linking back to; they are inert, and come back to life if the
// same id is inserted again. To keep that meaning a vacant slot holds on
// to its id, and is recycled for another only once refs shows that no
// link list mentions it any more.
type hnswNode struct {
	// vec is the key Insert was given, borrowed and never written:
	// Neighbor.Key hands it to callers who read it after the lock is
	// gone, while the slot's row or code is rewritten when the slot is
	// recycled.
	vec   vec.Vector
	upper [][]int32 // links of levels 1 and up, neighbour slots
	refs  int32     // entries of link lists that name this slot
}

const (
	vacant      = -1
	maxLevelCap = 32
)

// HNSWConfig parameterizes the graph.
type HNSWConfig struct {
	// M is the maximum neighbor count per node per layer (the bottom
	// layer allows 2M). Higher M raises recall and memory.
	M int
	// EfConstruction is the candidate-pool width while inserting.
	EfConstruction int
	// EfSearch is the candidate-pool width while querying; the
	// effective pool is max(EfSearch, k).
	EfSearch int
	// RepairBudget is how many tombstoned nodes each mutation re-links
	// and frees.
	RepairBudget int
	// Seed makes level assignment deterministic: the same insert
	// sequence always builds the same graph (crash recovery replays
	// puts in log order and must answer identically).
	Seed int64
}

// DefaultHNSWConfig returns parameters giving recall@1 >= 0.95 on the
// correlated feature-vector workloads the cache serves.
func DefaultHNSWConfig() HNSWConfig {
	return HNSWConfig{M: 16, EfConstruction: 128, EfSearch: 64, RepairBudget: 2, Seed: 1}
}

func (c HNSWConfig) withDefaults() HNSWConfig {
	d := DefaultHNSWConfig()
	if c.M <= 0 {
		c.M = d.M
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = d.EfConstruction
	}
	if c.EfSearch <= 0 {
		c.EfSearch = d.EfSearch
	}
	if c.RepairBudget <= 0 {
		c.RepairBudget = d.RepairBudget
	}
	return c
}

// NewHNSW returns an empty HNSW index that scans uncompressed keys.
func NewHNSW(m vec.Metric, cfg HNSWConfig) *HNSW {
	return newHNSW(m, cfg, nil)
}

// NewHNSWPQ returns an empty HNSW index that scores product-quantization
// codes of its keys (see pq.go): candidates are scored via asymmetric
// distance tables and the top candidates re-ranked exactly.
func NewHNSWPQ(m vec.Metric, cfg HNSWConfig, pq PQConfig) *HNSW {
	pq = pq.withDefaults()
	return newHNSW(m, cfg, &pq)
}

func newHNSW(m vec.Metric, cfg HNSWConfig, pq *PQConfig) *HNSW {
	cfg = cfg.withDefaults()
	h := &HNSW{
		metric:   m,
		norm:     boxNormOf(m),
		cfg:      cfg,
		pq:       pq,
		stride:   2*cfg.M + 2,
		slotOf:   make(map[ID]int32),
		entry:    -1,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		levelMul: 1 / math.Log(float64(cfg.M)),
	}
	h.mut.search = newScratch()
	return h
}

// KeyBytes implements MemoryReporter: a row of 8 bytes a dimension for
// each occupied slot, or once PQ is trained its code and the codebooks.
func (h *HNSW) KeyBytes() int64 {
	if h.codec == nil {
		return int64(8 * h.width * h.held)
	}
	b := int64(h.codec.m * h.held)
	for _, book := range h.codec.books {
		b += int64(8 * len(book))
	}
	return b
}

func (h *HNSW) maxLinks(level int) int {
	if level == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// idAt implements slotIDs.
func (h *HNSW) idAt(s int32) ID { return h.ids[s] }

// lookup finds the slot of a node that is in the graph, live or
// tombstoned.
func (h *HNSW) lookup(id ID) (int32, bool) {
	s, ok := h.slotOf[id]
	return s, ok && h.levels[s] >= 0
}

// links returns the level-l link list of slot s. A layer-0 list is a
// window on links0 whose capacity ends at the slot's stride, so that
// appending to it stays in place.
func (h *HNSW) links(s int32, l int) []int32 {
	if l > 0 {
		return h.nodes[s].upper[l-1]
	}
	at := int(s) * h.stride
	return h.links0[at+1 : at+1+int(h.links0[at]) : at+h.stride]
}

// storeLinks makes list, which links returned or an append to it, the
// level-l link list of slot s.
func (h *HNSW) storeLinks(s int32, l int, list []int32) {
	if l > 0 {
		h.nodes[s].upper[l-1] = list
		return
	}
	h.links0[int(s)*h.stride] = int32(len(list))
}

// hnswScorer estimates the distance from one query to the node in a
// slot: exactly against its row, or under PQ against its key until the
// codec is trained and then from its code, through the query's ADC
// table (kept in the search's scratch) or, for a metric that does not
// split across subspaces, against the decoded centroids. It is the only
// thing that differs between the two kinds' searches.
type hnswScorer struct {
	levels []int8
	rows   []float64
	width  int
	metric vec.Metric
	q      vec.Vector
	nodes  []hnswNode // set under PQ before training
	codec  *quantizer // set, with codes, kind and table, under PQ once trained
	codes  []byte
	kind   adcKind
	table  []float64
}

// scorer readies a scorer for query q; under trained PQ it builds the
// query's ADC table in sc.
func (h *HNSW) scorer(sc *scratch, q vec.Vector) hnswScorer {
	s := hnswScorer{levels: h.levels, rows: h.rows, width: h.width, metric: h.metric, q: q}
	switch {
	case h.codec != nil:
		s.codec, s.codes, s.kind = h.codec, h.codes, adcKindFor(h.metric)
		if s.kind != adcDecode {
			sc.adc = h.codec.adcTableInto(sc.adc, q, s.kind)
			s.table = sc.adc
		}
	case h.pq != nil:
		s.nodes = h.nodes
	}
	return s
}

// at scores slot s; a vacant slot, reached through a dangling link, is
// infinitely far.
func (s *hnswScorer) at(slot int32) float64 {
	switch {
	case s.levels[slot] < 0:
		return math.Inf(1)
	case s.codec != nil:
		code := s.codes[int(slot)*s.codec.m:][:s.codec.m]
		if s.kind == adcDecode {
			return s.metric.Distance(s.q, s.codec.decode(code))
		}
		return adcScore(s.table, code, s.codec.k, s.kind)
	case s.nodes != nil:
		return s.metric.Distance(s.q, s.nodes[slot].vec)
	}
	return s.metric.Distance(s.q, s.rows[int(slot)*s.width:][:s.width])
}

// Insert implements Index.
func (h *HNSW) Insert(id ID, key vec.Vector) error {
	switch {
	case len(key) == 0:
		return ErrEmptyKey
	case h.width == 0:
		h.width = len(key)
		h.lo, h.hi = make([]float64, h.width), make([]float64, h.width)
	case len(key) != h.width:
		return vec.ErrDimensionMismatch
	}
	if s, ok := h.lookup(id); ok && !h.deleted[s] {
		h.Remove(id)
	}
	if s, ok := h.lookup(id); ok && h.deleted[s] {
		// Re-inserting a tombstoned id: finish its removal now so the
		// new node starts clean.
		h.relink(s)
	}
	h.repairSome()
	if h.live == 0 {
		emptyBox(h.lo, h.hi)
	}
	widen(h.lo, h.hi, key)
	s := h.occupy(id)
	h.nodes[s].vec = key
	h.held++
	switch {
	case h.pq == nil:
		copy(h.rows[int(s)*h.width:], key)
	case h.codec != nil:
		h.setCode(s, key)
	default:
		h.sample = append(h.sample, s)
		if len(h.sample) >= h.pq.TrainSize {
			h.train()
		}
	}
	level := h.randomLevel()
	h.levels[s] = int8(level)
	if level > 0 {
		upper := make([][]int32, level)
		for l := range upper {
			// Room for the over-full entry addLink appends before it trims.
			upper[l] = make([]int32, 0, h.cfg.M+1)
		}
		h.nodes[s].upper = upper
	}
	h.live++
	if h.entry < 0 {
		h.entry, h.maxLevel = s, level
		return nil
	}
	sc := h.mut.search
	score := h.scorer(sc, key)
	// Greedy descent through layers above the new node's level.
	ep, _ := h.descend(&score, level)
	for l := min(level, h.maxLevel); l >= 0; l-- {
		h.searchLayer(sc, &score, ep, h.cfg.EfConstruction, l, math.Inf(1))
		found := sc.results.sorted()
		// A stable copy: a new node can find itself, through dangling
		// links to an earlier holder of its id, and addLink then rewrites
		// the very list being walked.
		neighbors := append(h.mut.merged[:0], h.selectFromSorted(key, found, h.cfg.M, false)...)
		h.mut.merged = neighbors
		h.setLinks(s, l, neighbors)
		for _, nb := range neighbors {
			h.addLink(nb, l, s)
		}
		if len(found) > 0 {
			ep = found[0]
		}
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = s
	}
	return nil
}

// occupy finds a slot for a new node. An id whose vacant slot is still
// named by dangling links goes back into it; any other takes the newest
// free slot, or grows the table.
func (h *HNSW) occupy(id ID) int32 {
	s, ok := h.slotOf[id]
	if !ok {
		if last := len(h.free) - 1; last >= 0 {
			s, h.free = h.free[last], h.free[:last]
		} else {
			s = int32(len(h.nodes))
			h.nodes = extend(h.nodes, 1)
			h.ids = extend(h.ids, 1)
			h.levels = extend(h.levels, 1)
			h.deleted = extend(h.deleted, 1)
			if h.pq == nil {
				h.rows = extend(h.rows, h.width)
			} else if h.codec != nil {
				h.codes = extend(h.codes, h.codec.m)
			}
			h.links0 = extend(h.links0, h.stride)
			h.levels[s] = vacant
		}
		h.slotOf[id] = s
		h.ids[s] = id
	}
	return s
}

// train fits the codec on the keys of the sample's slots (insertion
// order, seeded — deterministic) and encodes each of them.
func (h *HNSW) train() {
	samples := make([]vec.Vector, len(h.sample))
	for i, s := range h.sample {
		samples[i] = h.nodes[s].vec
	}
	h.codec = trainQuantizer(samples, h.width, h.pq.Subspaces, h.pq.Iters, h.pq.Seed)
	h.codes = make([]byte, len(h.nodes)*h.codec.m)
	for i, s := range h.sample {
		h.setCode(s, samples[i])
	}
	h.sample = nil
}

// setCode stores the code of key as slot s's.
func (h *HNSW) setCode(s int32, key vec.Vector) {
	copy(h.codes[int(s)*h.codec.m:], h.codec.encode(key))
}

// extend lengthens s by n zero elements. A full s is copied into twice
// the room it needs, so that the node table's arrays, which grow a slot
// at a time, allocate about twice their final size in all, where
// append's gentler growth at this size would allocate five times.
func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		t := make([]T, len(s), 2*(len(s)+n))
		copy(t, s)
		s = t
	}
	return s[:len(s)+n]
}

// unref drops one link to slot s.
func (h *HNSW) unref(s int32) {
	h.nodes[s].refs--
	h.recycle(s)
}

// recycle frees slot s for another id once it is vacant and no link
// list names it.
func (h *HNSW) recycle(s int32) {
	if h.nodes[s].refs == 0 && h.levels[s] < 0 {
		delete(h.slotOf, h.ids[s])
		h.free = append(h.free, s)
	}
}

// setLinks replaces the level-l link list of slot s with a copy of list,
// which must not alias it and must fit the level's capacity.
func (h *HNSW) setLinks(s int32, l int, list []int32) {
	for _, x := range list {
		h.nodes[x].refs++
	}
	old := h.links(s, l)
	for _, x := range old {
		h.unref(x)
	}
	h.storeLinks(s, l, append(old[:0], list...))
}

func (h *HNSW) randomLevel() int {
	l := int(-math.Log(1-float64(h.rng.Float64())) * h.levelMul)
	if l > maxLevelCap {
		l = maxLevelCap
	}
	return l
}

// addLink appends a back-edge from slot s to slot to and trims the
// neighbor list to capacity, keeping the closest candidates.
func (h *HNSW) addLink(s int32, level int, to int32) {
	if level > int(h.levels[s]) {
		return
	}
	h.nodes[to].refs++
	list := append(h.links(s, level), to)
	h.storeLinks(s, level, list)
	if max := h.maxLinks(level); len(list) > max {
		h.trimLinks(s, level, h.nodes[s].vec, list, max)
	}
}

// trimLinks re-selects the level's links of slot s from cands with the
// diversity heuristic (dead links sort last so they are evicted first
// but stay traversable while present).
func (h *HNSW) trimLinks(s int32, level int, base vec.Vector, cands []int32, max int) {
	sorted := h.mut.cands[:0]
	for _, nb := range cands {
		if h.levels[nb] >= 0 {
			sorted = append(sorted, scored{h.metric.Distance(base, h.nodes[nb].vec), nb})
		}
	}
	h.mut.cands = sorted
	// Insertion sort: live before dead, then by distance, then id.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0; j-- {
			a, b := sorted[j], sorted[j-1]
			if aDead, bDead := h.deleted[a.slot], h.deleted[b.slot]; aDead != bDead {
				if aDead {
					break
				}
			} else if a.dist > b.dist || (a.dist == b.dist && h.ids[a.slot] >= h.ids[b.slot]) {
				break
			}
			sorted[j], sorted[j-1] = b, a
		}
	}
	h.setLinks(s, level, h.selectFromSorted(base, sorted, max, true))
}

// selectFromSorted picks up to m candidates for a node at base using the
// HNSW diversity heuristic (Algorithm 4 of the paper): a candidate is
// kept only if it is closer to base than to every already-kept neighbor.
// Plain closest-M selection fails on clustered workloads — all links
// point into the local cluster and the graph disconnects; the heuristic
// preserves the long-range edges greedy search depends on. Remaining
// slots are back-filled with the closest pruned candidates. found is
// sorted by preference; allowDead keeps tombstoned candidates eligible
// for back-fill (trimming must not sever routes to not-yet-relinked
// nodes). The selection lives in the mutation scratch until the next
// call.
func (h *HNSW) selectFromSorted(base vec.Vector, found []scored, m int, allowDead bool) []int32 {
	out, kept, pruned := h.mut.pick[:0], h.mut.kept[:0], h.mut.pruned[:0]
	for _, f := range found {
		if len(out) == m {
			break
		}
		if h.levels[f.slot] < 0 {
			continue
		}
		if h.deleted[f.slot] {
			if allowDead {
				pruned = append(pruned, f.slot)
			}
			continue
		}
		v := h.nodes[f.slot].vec
		dq := h.metric.Distance(base, v)
		diverse := true
		for _, kv := range kept {
			if h.metric.Distance(v, kv) < dq {
				diverse = false
				break
			}
		}
		if !diverse {
			pruned = append(pruned, f.slot)
			continue
		}
		out = append(out, f.slot)
		kept = append(kept, v)
	}
	for _, s := range pruned {
		if len(out) == m {
			break
		}
		out = append(out, s)
	}
	h.mut.pick, h.mut.kept, h.mut.pruned = out, kept, pruned
	return out
}

// descend walks greedily from the entry point to the local minimum of
// every layer above stop, and returns where it ends with the number of
// nodes it scored.
func (h *HNSW) descend(score *hnswScorer, stop int) (scored, int) {
	ep := scored{score.at(h.entry), h.entry}
	probes := 1
	for l := h.maxLevel; l > stop; l-- {
		for improved := true; improved; {
			improved = false
			if l > int(h.levels[ep.slot]) {
				break
			}
			for _, nb := range h.nodes[ep.slot].upper[l-1] {
				probes++
				if d := score.at(nb); d < ep.dist {
					ep = scored{d, nb}
					improved = true
				}
			}
		}
	}
	return ep, probes
}

// searchLayer runs the bounded best-first search of one layer from seed:
// expand the closest unexpanded candidate, keep the ef best results seen.
// Tombstoned nodes are traversed (they still route) but reported only to
// the candidate frontier, never the result set.
//
// r is how far off a result can be of use. The search runs unbounded
// until a live node within r is in the results, the seed included, so
// that a descent which ended in another cluster still finds its way to
// the query's own; from then on a node farther than r is neither a
// candidate nor a result, and the expansion stops at the first candidate
// beyond r. r = +Inf is the unbounded search, probe for probe.
//
// The results are left in sc.results; the return value is the number of
// nodes scored.
func (h *HNSW) searchLayer(sc *scratch, score *hnswScorer, seed scored, ef, level int, r float64) int {
	sc.begin(h, cap(h.nodes))
	levels, deleted, visited, epoch := h.levels, h.deleted, sc.visited, sc.epoch
	cands, results := &sc.cands, &sc.results
	bound := math.Inf(1)
	visited[seed.slot] = epoch
	probes := 1
	cands.push(seed)
	if levels[seed.slot] >= 0 && !deleted[seed.slot] {
		results.push(seed)
		if seed.dist <= r {
			bound = r
		}
	}
	for len(cands.items) > 0 {
		c := cands.pop()
		if c.dist > bound || len(results.items) >= ef && c.dist > results.items[0].dist {
			break
		}
		if level > int(levels[c.slot]) {
			continue
		}
		for _, nb := range h.links(c.slot, level) {
			if visited[nb] == epoch {
				continue
			}
			visited[nb] = epoch
			probes++
			d := score.at(nb)
			full := len(results.items) >= ef
			if d > bound || full && !(d < results.items[0].dist) {
				continue
			}
			x := scored{d, nb}
			cands.push(x)
			if levels[nb] < 0 || deleted[nb] {
				continue
			}
			if d <= r {
				bound = r
			}
			if full {
				results.replaceRoot(x)
			} else {
				results.push(x)
			}
		}
	}
	return probes
}

// Remove implements Index: tombstone now, re-link lazily.
func (h *HNSW) Remove(id ID) {
	s, ok := h.lookup(id)
	if !ok || h.deleted[s] {
		return
	}
	h.deleted[s] = true
	h.live--
	h.repairQ = append(h.repairQ, id)
	if h.entry == s {
		h.electEntry()
	}
	h.repairSome()
}

// electEntry picks a new entry point: the live node with the highest
// level, ties broken toward the smallest id (so the choice does not
// depend on which slots the nodes happen to sit in).
func (h *HNSW) electEntry() {
	h.entry, h.maxLevel = -1, 0
	for s, level := range h.levels {
		if level < 0 || h.deleted[s] {
			continue
		}
		if h.entry < 0 || int(level) > h.maxLevel || (int(level) == h.maxLevel && h.ids[s] < h.ids[h.entry]) {
			h.entry, h.maxLevel = int32(s), int(level)
		}
	}
}

// repairSome drains up to RepairBudget tombstoned nodes from the repair
// queue: each is spliced out of its neighbours' link lists (live
// neighbours are offered each other as replacements) and freed.
func (h *HNSW) repairSome() {
	for budget := h.cfg.RepairBudget; budget > 0 && len(h.repairQ) > 0; budget-- {
		id := h.repairQ[0]
		h.repairQ = h.repairQ[1:]
		s, ok := h.lookup(id)
		if !ok || !h.deleted[s] {
			continue // re-inserted or already re-linked
		}
		h.relink(s)
	}
}

// relink splices the tombstoned node in slot s out of the graph: every
// live neighbour drops its edge to the dead node, inherits the dead
// node's other live neighbours as candidate replacements, and re-trims
// to capacity. The node and its stored vector are then freed; the slot
// is recycled now, or when the last dangling link to it goes.
func (h *HNSW) relink(s int32) {
	level := int(h.levels[s])
	for l := 0; l <= level; l++ {
		dead := h.links(s, l)
		for _, nb := range dead {
			if h.levels[nb] < 0 || h.deleted[nb] || l > int(h.levels[nb]) {
				continue
			}
			merged := h.mut.merged[:0]
			for _, x := range h.links(nb, l) {
				if x != s {
					merged = append(merged, x)
				}
			}
			// Offer the dead node's other live neighbours as
			// replacements, then keep the closest.
			for _, x := range dead {
				if x != nb && h.levels[x] >= 0 && !h.deleted[x] && !containsSlot(merged, x) {
					merged = append(merged, x)
				}
			}
			h.mut.merged = merged
			if max := h.maxLinks(l); len(merged) > max {
				h.trimLinks(nb, l, h.nodes[nb].vec, merged, max)
			} else {
				h.setLinks(nb, l, merged)
			}
		}
	}
	for l := 0; l <= level; l++ {
		for _, x := range h.links(s, l) {
			h.unref(x)
		}
	}
	if i := slices.Index(h.sample, s); i >= 0 {
		h.sample = slices.Delete(h.sample, i, i+1)
	}
	h.held--
	n := &h.nodes[s]
	h.links0[int(s)*h.stride] = 0
	n.vec, n.upper = nil, nil
	h.levels[s], h.deleted[s] = vacant, false
	h.recycle(s)
}

func containsSlot(slots []int32, s int32) bool {
	for _, x := range slots {
		if x == s {
			return true
		}
	}
	return false
}

// Nearest implements Index.
func (h *HNSW) Nearest(key vec.Vector) (Neighbor, bool) {
	n, _, ok := h.NearestWithin(key, math.Inf(1))
	return n, ok
}

// NearestWithin implements Index. A query whose box bound exceeds r is
// answered "none" with no search. Without PQ the layer-0 search is
// bounded by r once it holds an answer within r (see searchLayer).
// Under PQ it is not: an estimate beyond r does not show that the
// true distance is, so the search runs unbounded and its answer is
// filtered.
func (h *HNSW) NearestWithin(key vec.Vector, r float64) (Neighbor, int, bool) {
	if h.live == 0 || len(key) != h.width {
		return Neighbor{}, 0, false
	}
	if h.norm.outside(h.lo, h.hi, key, r) {
		h.countQuery(0)
		return Neighbor{}, 0, false
	}
	sc := h.get()
	defer h.put(sc)
	bound := r
	if h.pq != nil {
		bound = math.Inf(1)
	}
	res, probes := h.query(sc, key, 1, bound)
	if len(res) == 0 {
		return Neighbor{}, probes, false
	}
	return within(res[0], probes, true, r)
}

// KNearest implements Index.
func (h *HNSW) KNearest(key vec.Vector, k int) []Neighbor {
	ns, _ := h.KNearestProbed(key, k)
	return ns
}

// KNearestProbed implements Index: probes count the nodes
// scored by the descent plus the layer-0 expansion.
func (h *HNSW) KNearestProbed(key vec.Vector, k int) ([]Neighbor, int) {
	if k <= 0 || h.live == 0 || len(key) != h.width {
		return nil, 0
	}
	sc := h.get()
	defer h.put(sc)
	res, probes := h.query(sc, key, k, math.Inf(1))
	return cloneNeighbors(res), probes
}

// query answers one k-NN search on a non-empty graph, its layer-0 search
// bounded by r. The neighbours it returns live in sc.
func (h *HNSW) query(sc *scratch, key vec.Vector, k int, r float64) ([]Neighbor, int) {
	score := h.scorer(sc, key)
	seed, probes := h.descend(&score, 0)
	probes += h.searchLayer(sc, &score, seed, max(h.cfg.EfSearch, k), 0, r)
	h.countQuery(probes)
	return h.answer(sc, key, k), probes
}

// answer turns the result pool of a search into its k nearest
// neighbours, closest first. With exact scores those are the k best of
// the pool as they stand. With PQ estimates the k+ReRank best are scored
// again against uncompressed vectors, sorted by (distance, id) and cut
// to k, which is what keeps the Dist values truthful for threshold
// decisions.
func (h *HNSW) answer(sc *scratch, key vec.Vector, k int) []Neighbor {
	rescore := h.codec != nil
	n := k
	if rescore {
		n += h.pq.ReRank
	}
	out := sc.found[:0]
	for _, c := range sc.results.best(n, &sc.top) {
		v := h.nodes[c.slot].vec
		if rescore {
			c.dist = h.metric.Distance(key, v)
		}
		out = append(out, Neighbor{ID: h.ids[c.slot], Key: v, Dist: c.dist})
	}
	sc.found = out
	if rescore {
		sortNeighbors(out)
		out = out[:min(k, len(out))]
	}
	return out
}

// Radius implements RadiusSearcher. Like LSH, HNSW range search is
// approximate: it reports the within-radius subset of an ef-bounded
// layer-0 expansion (grown while the frontier keeps finding in-radius
// nodes), re-ranked exactly so no out-of-radius result is ever invented.
// A query whose box bound exceeds r finds nothing without a search.
func (h *HNSW) Radius(key vec.Vector, r float64) []Neighbor {
	if h.live == 0 || len(key) != h.width {
		return nil
	}
	if h.norm.outside(h.lo, h.hi, key, r) {
		h.countQuery(0)
		return nil
	}
	sc := h.get()
	defer h.put(sc)
	score := h.scorer(sc, key)
	probes := 0
	for ef := h.cfg.EfSearch; ; ef *= 2 {
		seed, p := h.descend(&score, 0)
		probes += p + h.searchLayer(sc, &score, seed, ef, 0, math.Inf(1))
		// Grow the pool until the worst kept candidate is outside the
		// radius (so nothing in-radius was cut) or everything is in.
		if pool := sc.results.items; len(pool) < ef || pool[0].dist > r || ef >= h.live {
			break
		}
	}
	h.countQuery(probes)
	res := h.answer(sc, key, len(sc.results.items))
	cut := len(res)
	for i, n := range res {
		if n.Dist > r {
			cut = i
			break
		}
	}
	return cloneNeighbors(res[:cut])
}

// Len implements Index.
func (h *HNSW) Len() int { return h.live }

// Metric implements Index.
func (h *HNSW) Metric() vec.Metric { return h.metric }

// Kind implements Index.
func (h *HNSW) Kind() Kind {
	if h.pq != nil {
		return KindHNSWPQ
	}
	return KindHNSW
}
