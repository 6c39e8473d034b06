package index

import (
	"container/heap"
	"math"
	"math/rand"

	"repro/internal/vec"
)

// oracleHNSW is the HNSW implementation this package had before the
// node table: nodes in a map keyed by id, link lists of ids, a map as
// the visited set, container/heap for the frontier and the result pool,
// every result drained and re-ranked. It is kept, test-only and
// otherwise unchanged but for the bound NearestWithin gives its layer-0
// search and the box that answers a query beyond it without one, as the
// reference the differential test in hnsw_diff_test.go replays the same
// operations against: the two must agree on every id, every distance bit
// and every probe count.
type oracleHNSW struct {
	probeCounter
	metric   vec.Metric
	cfg      HNSWConfig
	store    vecStore
	nodes    map[ID]*oracleNode
	entry    ID   // entry point (highest-level live node)
	entryOK  bool // false when the graph is empty
	maxLevel int
	rng      *rand.Rand
	levelMul float64
	repairQ  []ID // tombstoned nodes awaiting re-link
	live     int
	// lo and hi are the least and greatest coordinate, axis by axis, of
	// every key inserted since the graph was last empty.
	lo, hi []float64
}

type oracleNode struct {
	id      ID
	level   int
	links   [][]ID // per level, neighbor ids
	deleted bool
}

func newOracleHNSW(m vec.Metric, cfg HNSWConfig, store vecStore) *oracleHNSW {
	cfg = cfg.withDefaults()
	return &oracleHNSW{
		metric:   m,
		cfg:      cfg,
		store:    store,
		nodes:    make(map[ID]*oracleNode),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		levelMul: 1 / math.Log(float64(cfg.M)),
	}
}

func (h *oracleHNSW) maxLinks(level int) int {
	if level == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// Insert implements Index.
func (h *oracleHNSW) Insert(id ID, key vec.Vector) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if old, ok := h.nodes[id]; ok && !old.deleted {
		h.Remove(id)
	}
	if n, ok := h.nodes[id]; ok && n.deleted {
		// Re-inserting a tombstoned id: finish its removal now so the
		// new node starts clean.
		h.relink(n)
	}
	h.repairSome()
	if h.live == 0 {
		h.lo, h.hi = make([]float64, len(key)), make([]float64, len(key))
		for a := range key {
			h.lo[a], h.hi[a] = math.Inf(1), math.Inf(-1)
		}
	}
	for a, x := range key {
		if x < h.lo[a] {
			h.lo[a] = x
		}
		if x > h.hi[a] {
			h.hi[a] = x
		}
	}
	key = key.Clone()
	h.store.add(id, key)
	level := h.randomLevel()
	n := &oracleNode{id: id, level: level, links: make([][]ID, level+1)}
	h.nodes[id] = n
	h.live++
	if !h.entryOK {
		h.entry, h.entryOK, h.maxLevel = id, true, level
		return nil
	}
	score := h.store.scorer(key)
	ep := h.entry
	epDist := score(ep)
	// Greedy descent through layers above the new node's level.
	for l := h.maxLevel; l > level; l-- {
		ep, epDist = h.greedyStep(l, ep, epDist, score)
	}
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	for l := top; l >= 0; l-- {
		found := h.searchLayer(score, []oracleSeed{{ep, epDist}}, h.cfg.EfConstruction, l, math.Inf(1), nil)
		neighbors := h.selectNeighbors(key, found, h.cfg.M)
		n.links[l] = neighbors
		for _, nb := range neighbors {
			h.addLink(h.nodes[nb], l, id)
		}
		if len(found) > 0 {
			ep, epDist = found[0].id, found[0].dist
		}
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = id
	}
	return nil
}

func (h *oracleHNSW) randomLevel() int {
	l := int(-math.Log(1-h.rng.Float64()) * h.levelMul)
	const maxLevelCap = 32
	if l > maxLevelCap {
		l = maxLevelCap
	}
	return l
}

// addLink appends a back-edge and trims the neighbor list to capacity,
// keeping the closest candidates.
func (h *oracleHNSW) addLink(n *oracleNode, level int, id ID) {
	if n == nil || level > n.level {
		return
	}
	n.links[level] = append(n.links[level], id)
	max := h.maxLinks(level)
	if len(n.links[level]) <= max {
		return
	}
	base, ok := h.store.exact(n.id)
	if !ok {
		n.links[level] = n.links[level][:max]
		return
	}
	h.trimLinks(n, level, base, max)
}

// trimLinks re-selects the links of n at the given level with the
// diversity heuristic (dead links sort last so they are evicted first
// but stay traversable while present).
func (h *oracleHNSW) trimLinks(n *oracleNode, level int, base vec.Vector, max int) {
	type cand struct {
		id   ID
		dist float64
		dead bool
	}
	cands := make([]cand, 0, len(n.links[level]))
	for _, nb := range n.links[level] {
		nn, ok := h.nodes[nb]
		if !ok {
			continue
		}
		v, ok := h.store.exact(nb)
		if !ok {
			continue
		}
		cands = append(cands, cand{nb, h.metric.Distance(base, v), nn.deleted})
	}
	// Insertion sort: live before dead, then by distance, then id.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j], cands[j-1]
			if b.dead != a.dead {
				if a.dead {
					break
				}
			} else if a.dist > b.dist || (a.dist == b.dist && a.id >= b.id) {
				break
			}
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	seeds := make([]oracleSeed, len(cands))
	for i, c := range cands {
		seeds[i] = oracleSeed{c.id, c.dist}
	}
	n.links[level] = h.selectFromSorted(base, seeds, max, true)
}

// selectNeighbors picks up to m live candidates for a node at base using
// the HNSW diversity heuristic (Algorithm 4 of the paper): a candidate
// is kept only if it is closer to base than to every already-kept
// neighbor. Plain closest-M selection fails on clustered workloads — all
// links point into the local cluster and the graph disconnects; the
// heuristic preserves the long-range edges greedy search depends on.
// Remaining slots are back-filled with the closest pruned candidates.
func (h *oracleHNSW) selectNeighbors(base vec.Vector, found []oracleSeed, m int) []ID {
	return h.selectFromSorted(base, found, m, false)
}

// selectFromSorted applies the diversity heuristic to candidates already
// sorted by preference. allowDead keeps tombstoned candidates eligible
// for back-fill (trimming must not sever routes to not-yet-relinked
// nodes).
func (h *oracleHNSW) selectFromSorted(base vec.Vector, found []oracleSeed, m int, allowDead bool) []ID {
	out := make([]ID, 0, m)
	kept := make([]vec.Vector, 0, m)
	pruned := make([]ID, 0, len(found))
	for _, f := range found {
		if len(out) == m {
			break
		}
		n, ok := h.nodes[f.id]
		if !ok {
			continue
		}
		if n.deleted {
			if allowDead {
				pruned = append(pruned, f.id)
			}
			continue
		}
		v, ok := h.store.exact(f.id)
		if !ok {
			pruned = append(pruned, f.id)
			continue
		}
		dq := h.metric.Distance(base, v)
		diverse := true
		for _, kv := range kept {
			if h.metric.Distance(v, kv) < dq {
				diverse = false
				break
			}
		}
		if !diverse {
			pruned = append(pruned, f.id)
			continue
		}
		out = append(out, f.id)
		kept = append(kept, v)
	}
	for _, id := range pruned {
		if len(out) == m {
			break
		}
		out = append(out, id)
	}
	return out
}

// greedyStep walks one layer greedily to the local minimum.
func (h *oracleHNSW) greedyStep(level int, ep ID, epDist float64, score func(ID) float64) (ID, float64) {
	for {
		improved := false
		n := h.nodes[ep]
		if n == nil || level > n.level {
			return ep, epDist
		}
		for _, nb := range n.links[level] {
			if d := score(nb); d < epDist {
				ep, epDist = nb, d
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

type oracleSeed struct {
	id   ID
	dist float64
}

// oracleMinHeap is a min-heap of candidates by distance.
type oracleMinHeap []oracleSeed

func (s oracleMinHeap) Len() int { return len(s) }
func (s oracleMinHeap) Less(i, j int) bool {
	if s[i].dist != s[j].dist {
		return s[i].dist < s[j].dist
	}
	return s[i].id < s[j].id
}
func (s oracleMinHeap) Swap(i, j int)       { s[i], s[j] = s[j], s[i] }
func (s *oracleMinHeap) Push(x interface{}) { *s = append(*s, x.(oracleSeed)) }
func (s *oracleMinHeap) Pop() interface{} {
	old := *s
	n := len(old)
	x := old[n-1]
	*s = old[:n-1]
	return x
}

// oracleMaxHeap is a max-heap (worst candidate at the root).
type oracleMaxHeap []oracleSeed

func (s oracleMaxHeap) Len() int { return len(s) }
func (s oracleMaxHeap) Less(i, j int) bool {
	if s[i].dist != s[j].dist {
		return s[i].dist > s[j].dist
	}
	return s[i].id > s[j].id
}
func (s oracleMaxHeap) Swap(i, j int)       { s[i], s[j] = s[j], s[i] }
func (s *oracleMaxHeap) Push(x interface{}) { *s = append(*s, x.(oracleSeed)) }
func (s *oracleMaxHeap) Pop() interface{} {
	old := *s
	n := len(old)
	x := old[n-1]
	*s = old[:n-1]
	return x
}

// searchLayer runs the bounded best-first search of one layer: expand
// the closest unexpanded candidate, keep the ef best results seen.
// Tombstoned nodes are traversed (they still route) but reported only to
// the candidate frontier, never the result set. Once a live node within
// r has entered the results (a seed counts), r bounds the search: a node
// farther than r is neither a candidate nor a result, and the expansion
// stops at the first candidate beyond r. Returns results sorted by
// (dist, id). visited, when non-nil, accumulates the probe count.
func (h *oracleHNSW) searchLayer(score func(ID) float64, seeds []oracleSeed, ef, level int, r float64, visited *int) []oracleSeed {
	seen := make(map[ID]struct{}, ef*4)
	cands := make(oracleMinHeap, 0, ef)
	results := make(oracleMaxHeap, 0, ef)
	bounded := false
	for _, s := range seeds {
		if _, dup := seen[s.id]; dup {
			continue
		}
		seen[s.id] = struct{}{}
		if visited != nil {
			*visited++
		}
		heap.Push(&cands, s)
		if n, ok := h.nodes[s.id]; ok && !n.deleted {
			heap.Push(&results, s)
			bounded = bounded || s.dist <= r
		}
	}
	for cands.Len() > 0 {
		c := heap.Pop(&cands).(oracleSeed)
		if bounded && c.dist > r {
			break
		}
		if results.Len() >= ef && c.dist > results[0].dist {
			break
		}
		n := h.nodes[c.id]
		if n == nil || level > n.level {
			continue
		}
		for _, nb := range n.links[level] {
			if _, dup := seen[nb]; dup {
				continue
			}
			seen[nb] = struct{}{}
			if visited != nil {
				*visited++
			}
			d := score(nb)
			if bounded && d > r {
				continue
			}
			if results.Len() < ef || d < results[0].dist {
				heap.Push(&cands, oracleSeed{nb, d})
				if nn, ok := h.nodes[nb]; ok && !nn.deleted {
					heap.Push(&results, oracleSeed{nb, d})
					bounded = bounded || d <= r
					if results.Len() > ef {
						heap.Pop(&results)
					}
				}
			}
		}
	}
	out := make([]oracleSeed, results.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&results).(oracleSeed)
	}
	return out
}

// descend runs the upper-layer greedy descent for a query and returns
// the layer-0 entry seed.
func (h *oracleHNSW) descend(score func(ID) float64, visited *int) oracleSeed {
	ep := h.entry
	epDist := score(ep)
	if visited != nil {
		*visited++
	}
	for l := h.maxLevel; l > 0; l-- {
		ep, epDist = h.greedyStepCounted(l, ep, epDist, score, visited)
	}
	return oracleSeed{ep, epDist}
}

func (h *oracleHNSW) greedyStepCounted(level int, ep ID, epDist float64, score func(ID) float64, visited *int) (ID, float64) {
	for {
		improved := false
		n := h.nodes[ep]
		if n == nil || level > n.level {
			return ep, epDist
		}
		for _, nb := range n.links[level] {
			if visited != nil {
				*visited++
			}
			if d := score(nb); d < epDist {
				ep, epDist = nb, d
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

// Remove implements Index: tombstone now, re-link lazily.
func (h *oracleHNSW) Remove(id ID) {
	n, ok := h.nodes[id]
	if !ok || n.deleted {
		return
	}
	n.deleted = true
	h.live--
	h.repairQ = append(h.repairQ, id)
	if h.entry == id {
		h.electEntry()
	}
	h.repairSome()
}

// electEntry picks a new entry point: the live node with the highest
// level, ties broken toward the smallest id (a deterministic choice, so
// graph evolution does not depend on map iteration order).
func (h *oracleHNSW) electEntry() {
	bestID, bestLevel, found := ID(0), -1, false
	for id, n := range h.nodes {
		if n.deleted {
			continue
		}
		if n.level > bestLevel || (n.level == bestLevel && id < bestID) {
			bestID, bestLevel, found = id, n.level, true
		}
	}
	if !found {
		h.entryOK = false
		h.maxLevel = 0
		return
	}
	h.entry, h.maxLevel = bestID, bestLevel
}

// repairSome drains up to RepairBudget tombstoned nodes from the repair
// queue: each is spliced out of its neighbours' link lists (live
// neighbours are offered each other as replacements) and freed.
func (h *oracleHNSW) repairSome() {
	for budget := h.cfg.RepairBudget; budget > 0 && len(h.repairQ) > 0; budget-- {
		id := h.repairQ[0]
		h.repairQ = h.repairQ[1:]
		n, ok := h.nodes[id]
		if !ok || !n.deleted {
			continue // re-inserted or already re-linked
		}
		h.relink(n)
	}
}

// relink splices a tombstoned node out of the graph: every live
// neighbour drops its edge to the dead node, inherits the dead node's
// other live neighbours as candidate replacements, and re-trims to
// capacity. The node and its stored vector are then freed.
func (h *oracleHNSW) relink(n *oracleNode) {
	for l := 0; l <= n.level; l++ {
		for _, nbID := range n.links[l] {
			nb, ok := h.nodes[nbID]
			if !ok || nb.deleted || l > nb.level {
				continue
			}
			links := nb.links[l][:0]
			for _, x := range nb.links[l] {
				if x != n.id {
					links = append(links, x)
				}
			}
			// Offer the dead node's other live neighbours as
			// replacements, then keep the closest.
			for _, x := range n.links[l] {
				if x == nbID {
					continue
				}
				if xn, ok := h.nodes[x]; ok && !xn.deleted && !oracleContainsID(links, x) {
					links = append(links, x)
				}
			}
			nb.links[l] = links
			if base, ok := h.store.exact(nbID); ok && len(nb.links[l]) > h.maxLinks(l) {
				h.trimLinks(nb, l, base, h.maxLinks(l))
			}
		}
	}
	delete(h.nodes, n.id)
	h.store.remove(n.id)
}

func oracleContainsID(ids []ID, id ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// outside is HNSW's certificate written out again for the Euclidean
// metric, the only one the differential streams use: the squared gaps
// from key to the box, summed axis by axis, exceed r² by kdPruneSlack.
func (h *oracleHNSW) outside(key vec.Vector, r float64) bool {
	if _, ok := h.metric.(vec.EuclideanMetric); !ok || h.live == 0 {
		return false
	}
	var sum float64
	for a, x := range key {
		gap := 0.0
		if x < h.lo[a] {
			gap = h.lo[a] - x
		} else if x > h.hi[a] {
			gap = x - h.hi[a]
		}
		sum += gap * gap
	}
	return sum > r*r*(1+kdPruneSlack)
}

// NearestWithin implements Index: a query the box shows to have nothing
// within r is answered without a search; otherwise over the flat store
// the layer-0 search is bounded by r, over a PQ store it is not, and
// either answer is filtered.
func (h *oracleHNSW) NearestWithin(key vec.Vector, r float64) (Neighbor, int, bool) {
	if h.outside(key, r) {
		h.countQuery(0)
		return Neighbor{}, 0, false
	}
	bound := math.Inf(1)
	if _, flat := h.store.(*flatStore); flat {
		bound = r
	}
	res, probes := h.kNearest(key, 1, bound)
	if len(res) == 0 {
		return Neighbor{}, probes, false
	}
	return within(res[0], probes, true, r)
}

// KNearest implements Index: probes count the nodes
// scored by the descent plus the layer-0 expansion.
func (h *oracleHNSW) KNearest(key vec.Vector, k int) ([]Neighbor, int) {
	return h.kNearest(key, k, math.Inf(1))
}

// kNearest is KNearest with the layer-0 search bounded by r.
func (h *oracleHNSW) kNearest(key vec.Vector, k int, r float64) ([]Neighbor, int) {
	if k <= 0 || !h.entryOK || h.live == 0 {
		return nil, 0
	}
	score := h.store.scorer(key)
	visited := 0
	ef := h.cfg.EfSearch
	if k > ef {
		ef = k
	}
	seed := h.descend(score, &visited)
	found := h.searchLayer(score, []oracleSeed{seed}, ef, 0, r, &visited)
	h.countQuery(visited)
	cands := make([]Neighbor, 0, len(found))
	for _, f := range found {
		cands = append(cands, Neighbor{ID: f.id, Dist: f.dist})
	}
	extra := 0
	if pq, ok := h.store.(*pqStore); ok {
		extra = pq.cfg.ReRank
	}
	return reRank(h.store, h.metric, key, cands, k, extra), visited
}
