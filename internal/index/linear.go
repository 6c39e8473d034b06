package index

import (
	"math"
	"sort"

	"repro/internal/vec"
)

// Linear is the naive enumeration index: every query scans all stored
// keys. It is the correctness reference for the other indices and the
// "enum" column of Table 2 in the paper.
type Linear struct {
	probeCounter
	metric vec.Metric
	keys   map[ID]vec.Vector
}

// NewLinear returns an empty linear-scan index using metric m.
func NewLinear(m vec.Metric) *Linear {
	return &Linear{metric: m, keys: make(map[ID]vec.Vector)}
}

// Insert implements Index.
func (l *Linear) Insert(id ID, key vec.Vector) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	l.keys[id] = key.Clone()
	return nil
}

// Remove implements Index.
func (l *Linear) Remove(id ID) { delete(l.keys, id) }

// Nearest implements Index.
func (l *Linear) Nearest(key vec.Vector) (Neighbor, bool) {
	n, _, ok := l.NearestWithin(key, math.Inf(1))
	return n, ok
}

// NearestWithin implements Index: a linear scan always probes every
// stored key.
func (l *Linear) NearestWithin(key vec.Vector, r float64) (Neighbor, int, bool) {
	probes := len(l.keys)
	l.countQuery(probes)
	best := Neighbor{Dist: -1}
	for id, k := range l.keys {
		d := l.metric.Distance(key, k)
		if best.Dist < 0 || d < best.Dist || (d == best.Dist && id < best.ID) {
			best = Neighbor{ID: id, Key: k, Dist: d}
		}
	}
	return within(best, probes, best.Dist >= 0, r)
}

// KNearest implements Index.
func (l *Linear) KNearest(key vec.Vector, k int) []Neighbor {
	ns, _ := l.KNearestProbed(key, k)
	return ns
}

// KNearestProbed implements Index.
func (l *Linear) KNearestProbed(key vec.Vector, k int) ([]Neighbor, int) {
	if k <= 0 {
		return nil, 0
	}
	l.countQuery(len(l.keys))
	all := make([]Neighbor, 0, len(l.keys))
	for id, kv := range l.keys {
		all = append(all, Neighbor{ID: id, Key: kv, Dist: l.metric.Distance(key, kv)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, len(l.keys)
}

// Len implements Index.
func (l *Linear) Len() int { return len(l.keys) }

// Metric implements Index.
func (l *Linear) Metric() vec.Metric { return l.metric }

// Kind implements Index.
func (l *Linear) Kind() Kind { return KindLinear }
