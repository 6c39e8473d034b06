package index

import (
	"repro/internal/vec"
)

// RadiusSearcher is implemented by indices that support range searches
// ("KD-trees and LSHs are data structures to support spatial indexing
// and efficient nearest neighbor and range searches", §4.2). Radius
// returns every stored entry within distance r of key, ordered by
// increasing distance.
type RadiusSearcher interface {
	Radius(key vec.Vector, r float64) []Neighbor
}

// Radius performs a range search on any index: natively when the index
// implements RadiusSearcher, otherwise by filtering a full KNearest.
func Radius(idx Index, key vec.Vector, r float64) []Neighbor {
	if rs, ok := idx.(RadiusSearcher); ok {
		return rs.Radius(key, r)
	}
	all := idx.KNearest(key, idx.Len())
	cut := len(all)
	for i, n := range all {
		if n.Dist > r {
			cut = i
			break
		}
	}
	return all[:cut]
}

// Radius implements RadiusSearcher for the linear index.
func (l *Linear) Radius(key vec.Vector, r float64) []Neighbor {
	l.countQuery(len(l.keys))
	out := make([]Neighbor, 0, 8)
	for id, k := range l.keys {
		if d := l.metric.Distance(key, k); d <= r {
			out = append(out, Neighbor{ID: id, Key: k, Dist: d})
		}
	}
	sortNeighbors(out)
	return out
}

// Radius implements RadiusSearcher for LSH: bucket candidates are ranked
// exactly, and when probing finds nothing the scan fallback keeps the
// result complete (mirroring KNearest's contract).
func (l *LSH) Radius(key vec.Vector, r float64) []Neighbor {
	cand := l.candidates(key)
	if len(cand) == 0 {
		for id := range l.keys {
			cand[id] = struct{}{}
		}
	}
	l.countQuery(len(cand))
	out := make([]Neighbor, 0, len(cand))
	for id := range cand {
		k := l.keys[id]
		if d := l.metric.Distance(key, k); d <= r {
			out = append(out, Neighbor{ID: id, Key: k, Dist: d})
		}
	}
	sortNeighbors(out)
	return out
}
