package whatif

import (
	"math"

	"repro/internal/core"
	"repro/internal/vec"
)

// ghost is one metadata-only shadow cache: it simulates the real
// cache's admission and eviction at a counterfactual capacity multiple
// and eviction policy, holding only ids, keys, and the metadata the
// policy scores — never values. Eviction is the production code run on
// that metadata: the same core.Policy score functions, victim heap and
// (score, id) order as the live cache. Ghost capacities are pre-scaled
// by the sample rate (SHARDS: a 1-in-R sampled trace against a cache of
// C·R entries estimates the full trace against C), so hit *ratios* need
// no unscaling. All ghost state is owned by the profiler's consumer and
// needs no locking.
type ghost struct {
	mult   float64
	policy core.Policy

	capEntries int   // scaled entry bound (0 = unbounded on entries)
	capBytes   int64 // scaled byte bound (0 = unbounded on bytes)

	entries map[uint64]*ghostEntry
	// victims holds the resident entries in eviction order.
	victims core.Heap[*ghostEntry]
	// byHash indexes each (function, keyType) series by sampling hash
	// (hash → resident entry id). It serves two purposes: the exact-key
	// fast path — a probe for a key the ghost already holds is at
	// distance 0, within any non-negative threshold, so two map hits
	// replace the scan — and enumeration for the linear
	// nearest-neighbour fallback (ghost populations are small,
	// realCap · mult · rate, so brute force beats shadow ANN indexes).
	// Hash matches are verified against the entry's stored key; a
	// same-series hash collision overwrites, hiding one key from the
	// scan — an approximation at 2⁻⁶⁴ odds.
	byHash map[ktKey]map[uint64]uint64

	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64

	// free recycles evicted entries. Steady-state ghosts evict about as
	// often as they admit, so reuse keeps the consumer allocation-free
	// after warmup — on small hosts the GC pressure would otherwise bill
	// straight to the serving threads.
	free *ghostEntry
}

// ktKey identifies one (function, keyType) series.
type ktKey struct{ fn, kt string }

// euclid is the fixed ghost-side distance metric; see ghost.lookup.
var euclid vec.EuclideanMetric

type ghostEntry struct {
	id uint64
	core.Meta
	keys []ghostKey
	next *ghostEntry // free-list link; nil while resident
	slot int         // position in ghost.victims
}

func (e *ghostEntry) meta() core.Meta { return e.Meta }

type ghostKey struct {
	kt   ktKey
	key  vec.Vector
	hash uint64 // sampleHash(key); the exact-match identity
}

// newGhost scales the real capacity bounds by mult·rate. A zero result
// from a nonzero bound is clamped to 1 entry — a ghost that can hold
// nothing would report a degenerate 100% miss ratio.
func newGhost(mult float64, kind core.PolicyKind, capEntries int, capBytes int64, rate float64) *ghost {
	policy, err := core.NewPolicy(kind, 0)
	if err != nil {
		panic(err) // kinds come from ghostPolicies
	}
	g := &ghost{
		mult:    mult,
		policy:  policy,
		entries: make(map[uint64]*ghostEntry),
		victims: core.NewHeap(func(e *ghostEntry) *int { return &e.slot }),
		byHash:  make(map[ktKey]map[uint64]uint64),
	}
	if capEntries > 0 {
		g.capEntries = int(math.Round(float64(capEntries) * mult * rate))
		if g.capEntries < 1 {
			g.capEntries = 1
		}
	}
	if capBytes > 0 {
		g.capBytes = int64(math.Round(float64(capBytes) * mult * rate))
		if g.capBytes < 1 {
			g.capBytes = 1
		}
	}
	return g
}

// lookup simulates one sampled probe: nearest neighbour among the
// ghost's keys for this (fn, keyType), hit iff within the live
// threshold. Distances use the Euclidean metric — the index kinds'
// default — regardless of the key type's configured metric; the
// profiler trades metric fidelity for not plumbing metrics through the
// tap (an approximation the validation experiment bounds).
//
// A miss admits a synthetic entry for the probe key (keyHash is the
// probe's sampling hash, which doubles as its identity). This is the
// compute-on-miss assumption the paper's workloads follow: a cache of
// this counterfactual capacity would have computed and admitted the
// result — including when the real cache hit and therefore never
// issued the put that would otherwise feed the ghost. The synthetic
// entry is metadata-thin (zero cost/size) until a real put for the
// same key refreshes it via the put-side merge.
func (g *ghost) lookup(kt ktKey, key vec.Vector, keyHash uint64, threshold float64, atNanos int64) {
	series := g.byHash[kt]
	// Exact-key fast path: reuse-heavy workloads mostly re-probe keys
	// the ghost already holds, and an identical key is at distance 0 —
	// within every non-negative threshold — so the scan is skippable.
	if id, ok := series[keyHash]; ok {
		if e := g.entries[id]; e != nil && sameKey(e.keyFor(kt), key) {
			e.AccessCount++
			e.LastAccess = atNanos
			g.hits++
			return
		}
	}
	var best *ghostEntry
	bestDist := math.Inf(1)
	for _, id := range series {
		e := g.entries[id]
		if e == nil {
			continue
		}
		if d := euclid.Distance(e.keyFor(kt), key); d < bestDist {
			bestDist = d
			best = e
		}
	}
	if bestDist <= threshold && best != nil {
		best.AccessCount++
		best.LastAccess = atNanos
		g.hits++
		return
	}
	g.misses++
	e := g.alloc()
	e.id, e.AccessCount = keyHash, 1
	e.LastAccess, e.InsertedAt = atNanos, atNanos
	e.keys = append(e.keys, ghostKey{kt: kt, key: key, hash: keyHash})
	g.put(e)
}

// alloc returns a blank entry, reusing an evicted one when available.
// The caller fills it and hands it to put; entries never move between
// ghosts.
func (g *ghost) alloc() *ghostEntry {
	e := g.free
	if e == nil {
		return &ghostEntry{}
	}
	g.free = e.next
	keys := e.keys[:0]
	*e = ghostEntry{keys: keys}
	return e
}

// put admits one sampled entry and evicts by this ghost's own policy
// until its scaled bounds hold, mirroring core's replace-victim-with-
// new-entry order (§3.6): the fresh entry joins the victim heap only
// after the evictions, so it is never its own victim.
//
// Any resident entry holding an identical key is merged into the new
// one first. The real cache assigns a fresh id when it re-admits
// content it evicted earlier, and lookup-side synthetic admissions use
// key-hash ids; counterfactually both are refreshes of the same
// content. Without the merge, re-admissions pile up as duplicates and
// squeeze genuine tail entries out of the bigger ghosts.
func (g *ghost) put(e *ghostEntry) {
	if old := g.entries[e.id]; old != nil {
		g.remove(old)
	}
	for _, gk := range e.keys {
		id, ok := g.byHash[gk.kt][gk.hash]
		if !ok || id == e.id {
			continue
		}
		old := g.entries[id]
		if old == nil || !sameKey(old.keyFor(gk.kt), gk.key) {
			continue
		}
		e.AccessCount += old.AccessCount
		e.LastAccess = max(e.LastAccess, old.LastAccess)
		if e.Cost == 0 {
			e.Cost = old.Cost
		}
		if e.Size == 0 {
			e.Size = old.Size
		}
		g.remove(old)
	}
	g.entries[e.id] = e
	g.bytes += int64(e.Size)
	for _, gk := range e.keys {
		h := g.byHash[gk.kt]
		if h == nil {
			h = make(map[uint64]uint64)
			g.byHash[gk.kt] = h
		}
		h[gk.hash] = e.id
	}
	for g.victims.Len() > 0 && g.overCap() {
		g.remove(core.Victim(g.policy, &g.victims, (*ghostEntry).meta))
		g.evictions++
	}
	g.victims.Push(e, g.policy.Score(e.Meta), e.id)
}

func (g *ghost) overCap() bool {
	if g.capEntries > 0 && len(g.entries) > g.capEntries {
		return true
	}
	return g.capBytes > 0 && g.bytes > g.capBytes
}

func (g *ghost) remove(e *ghostEntry) {
	delete(g.entries, e.id)
	g.victims.Remove(e)
	g.bytes -= int64(e.Size)
	for _, gk := range e.keys {
		if h := g.byHash[gk.kt]; h != nil {
			// Only unmap the hash if it still points at this entry; a
			// merge may have re-pointed it at the surviving entry.
			if h[gk.hash] == e.id {
				delete(h, gk.hash)
			}
			if len(h) == 0 {
				delete(g.byHash, gk.kt)
			}
		}
	}
	for i := range e.keys {
		e.keys[i] = ghostKey{} // drop key-vector references before pooling
	}
	e.next = g.free
	g.free = e
}

// keyFor returns the entry's key vector for one (function, keyType)
// series, or nil if the entry has none there. Entries carry at most a
// handful of keys, so the linear match beats any index.
func (e *ghostEntry) keyFor(kt ktKey) vec.Vector {
	for i := range e.keys {
		if e.keys[i].kt == kt {
			return e.keys[i].key
		}
	}
	return nil
}

// sameKey reports exact componentwise equality — the identity relation
// for the put-side merge (similar-but-unequal keys are distinct content).
func sameKey(a, b vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hitRate returns the ghost's observed hit rate over sampled,
// non-dropout lookups (0 when it saw none).
func (g *ghost) hitRate() float64 {
	total := g.hits + g.misses
	if total == 0 {
		return 0
	}
	return float64(g.hits) / float64(total)
}
