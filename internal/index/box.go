package index

import (
	"math"

	"repro/internal/vec"
)

// An axis-aligned box, its least and greatest coordinate per axis, bounds
// from below the distance from a query to any key inside it. The k-d tree
// keeps one per node to cut subtrees; HNSW keeps one around all its keys
// to answer a miss beyond it without a search.

// emptyBox makes lo and hi the box that holds no key: every axis runs
// from +Inf down to -Inf.
func emptyBox(lo, hi []float64) {
	for a := range lo {
		lo[a], hi[a] = math.Inf(1), math.Inf(-1)
	}
}

// widen grows the box lo, hi to hold key. A NaN coordinate compares false
// both ways and leaves its axis as it was: its key lies at NaN from every
// query under the three metrics a box bounds, never within a limit.
func widen(lo, hi []float64, key vec.Vector) {
	for a, x := range key {
		if x < lo[a] {
			lo[a] = x
		}
		if x > hi[a] {
			hi[a] = x
		}
	}
}

// kdPruneSlack is the relative margin by which a bound must clear the
// current limit before a search cuts what lies beyond it. Summed in the
// order the distance is (vec.Form.BoxPartial), each of a box's terms is
// at most the key's, so in round-to-nearest the box bound never exceeds
// a key's distance; the margin covers a compiler that fuses the
// multiply-adds of one sum and not the other, and the rounding of a
// squared radius.
const kdPruneSlack = 1e-9

// outside reports whether the box lo, hi shows that no key inside it lies
// within r of key: the k-d tree's cut at r, in the partials of form f. It
// never holds for r = +Inf, a NaN bound, or FormOther, which no box
// bounds.
func outside(f vec.Form, lo, hi []float64, key vec.Vector, r float64) bool {
	return f != vec.FormOther && f.BoxPartial(lo, hi, key) > f.Limit(r)*(1+kdPruneSlack)
}
