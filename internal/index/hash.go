package index

import (
	"math"

	"repro/internal/vec"
)

// Hash is the exact-match index: O(1) lookups for identical keys
// ("A hashmap is useful for the exact matching, achieving O(1) time
// complexity for key search", §4.2). Nearest returns distance 0 on an
// exact hit; otherwise it reports the closest key found among hash
// collisions of the quantized key, falling back to a scan only when the
// bucket is empty and the caller asked for approximate results.
//
// Keys are identified by their exact bit pattern. Approximate matching
// should use KDTree or LSH; Hash exists for functions whose inputs are
// discrete (e.g. exact strings or rounded poses).
type Hash struct {
	probeCounter
	metric  vec.Metric
	buckets map[string][]ID
	keys    map[ID]vec.Vector
	sig     map[ID]string
}

// NewHash returns an empty exact-match index using metric m.
func NewHash(m vec.Metric) *Hash {
	return &Hash{
		metric:  m,
		buckets: make(map[string][]ID),
		keys:    make(map[ID]vec.Vector),
		sig:     make(map[ID]string),
	}
}

func signature(key vec.Vector) string {
	buf := make([]byte, 0, len(key)*8)
	for _, x := range key {
		b := math.Float64bits(x)
		buf = append(buf,
			byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
			byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
	}
	return string(buf)
}

// Insert implements Index.
func (h *Hash) Insert(id ID, key vec.Vector) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if _, ok := h.keys[id]; ok {
		h.Remove(id)
	}
	s := signature(key)
	h.keys[id] = key
	h.sig[id] = s
	h.buckets[s] = append(h.buckets[s], id)
	return nil
}

// Remove implements Index.
func (h *Hash) Remove(id ID) {
	s, ok := h.sig[id]
	if !ok {
		return
	}
	ids := h.buckets[s]
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(h.buckets, s)
	} else {
		h.buckets[s] = ids
	}
	delete(h.sig, id)
	delete(h.keys, id)
}

// Nearest implements Index. An exact hit returns distance 0 in O(1);
// otherwise all keys are scanned (exact-match indices are not meant for
// approximate queries, but degrading to a scan keeps the cache correct
// if an application registers one anyway).
func (h *Hash) Nearest(key vec.Vector) (Neighbor, bool) {
	n, _, ok := h.NearestWithin(key, math.Inf(1))
	return n, ok
}

// NearestWithin implements Index: an exact hit probes only its bucket,
// the approximate fallback probes every key.
func (h *Hash) NearestWithin(key vec.Vector, r float64) (Neighbor, int, bool) {
	if ids := h.buckets[signature(key)]; len(ids) > 0 {
		h.countQuery(len(ids))
		id := minID(ids)
		return within(Neighbor{ID: id, Key: h.keys[id], Dist: 0}, len(ids), true, r)
	}
	probes := len(h.keys)
	h.countQuery(probes)
	best := Neighbor{Dist: -1}
	for id, kv := range h.keys {
		d := h.metric.Distance(key, kv)
		if best.Dist < 0 || d < best.Dist || (d == best.Dist && id < best.ID) {
			best = Neighbor{ID: id, Key: kv, Dist: d}
		}
	}
	return within(best, probes, best.Dist >= 0, r)
}

func minID(ids []ID) ID {
	m := ids[0]
	for _, id := range ids[1:] {
		if id < m {
			m = id
		}
	}
	return m
}

// KNearest implements Index.
func (h *Hash) KNearest(key vec.Vector, k int) ([]Neighbor, int) {
	if k <= 0 || len(h.keys) == 0 {
		return nil, 0
	}
	probes := len(h.keys)
	h.countQuery(probes)
	ns := make([]Neighbor, 0, len(h.keys))
	for id, kv := range h.keys {
		ns = append(ns, Neighbor{ID: id, Key: kv, Dist: h.metric.Distance(key, kv)})
	}
	sortNeighbors(ns)
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns, probes
}

// Len implements Index.
func (h *Hash) Len() int { return len(h.keys) }

// Metric implements Index.
func (h *Hash) Metric() vec.Metric { return h.metric }

// Kind implements Index.
func (h *Hash) Kind() Kind { return KindHash }
