package index

import (
	"math"

	"repro/internal/vec"
)

// An axis-aligned box, its least and greatest coordinate per axis, bounds
// from below the distance from a query to any key inside it. The k-d tree
// keeps one per node to cut subtrees; HNSW keeps one around all its keys
// to answer a miss beyond it without a search.

// boxNorm is how a box bounds the metric from below.
type boxNorm uint8

const (
	noBoxBound boxNorm = iota // the metric has no box bound: nothing is ever cut
	boxL2
	boxL1
	boxLinf
)

func boxNormOf(m vec.Metric) boxNorm {
	switch m.(type) {
	case vec.EuclideanMetric:
		return boxL2
	case vec.ManhattanMetric:
		return boxL1
	case vec.ChebyshevMetric:
		return boxLinf
	}
	return noBoxBound
}

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

// sqBoxDist is the squared Euclidean distance from key to the box lo, hi,
// summed in vec.SquaredEuclidean's order. At most one of an axis' two
// gaps is positive, so their sum is that axis' gap, without a branch. A
// NaN coordinate, or an infinite one on an infinite face, makes it NaN.
func sqBoxDist(lo, hi []float64, key vec.Vector) float64 {
	lo, hi = lo[:len(key)], hi[:len(key)]
	var sum float64
	for a, x := range key {
		g := max(lo[a]-x, 0) + max(x-hi[a], 0)
		sum += float64(g * g)
	}
	return sum
}

// bound is the least distance, in the metric's own terms, from key to
// any key inside the box lo, hi.
func (n boxNorm) bound(lo, hi []float64, key vec.Vector) float64 {
	if n == boxL2 {
		return math.Sqrt(sqBoxDist(lo, hi, key))
	}
	var sum, most float64
	for a, x := range key {
		g := max(lo[a]-x, 0) + max(x-hi[a], 0)
		sum += g
		most = max(most, g)
	}
	if n == boxL1 {
		return sum
	}
	return most
}

// farther reports whether every key inside the box lies farther than
// limit from key: in squared distance when sq is set, in the metric's
// own terms otherwise. A NaN bound cuts nothing.
func (n boxNorm) farther(lo, hi []float64, key vec.Vector, limit float64, sq bool) bool {
	switch {
	case n == noBoxBound:
		return false
	case sq:
		return sqBoxDist(lo, hi, key) > limit
	}
	return n.bound(lo, hi, key) > limit
}

// kdPruneSlack is the relative margin by which a bound must clear the
// current limit before a search cuts what lies beyond it. Summed in the
// order the distance is, each of a box's terms is at most the key's, so
// in round-to-nearest the box bound never exceeds a key's distance; the
// margin covers a compiler that fuses the multiply-adds of one sum and
// not the other, and the rounding of a squared radius.
const kdPruneSlack = 1e-9

// outside reports whether the box lo, hi shows that no key inside it lies
// within r of key: the k-d tree's cut at r, in squared distance for the
// Euclidean metric. It never holds for r = +Inf, a NaN bound, or a
// metric without a box bound.
func (n boxNorm) outside(lo, hi []float64, key vec.Vector, r float64) bool {
	if n == boxL2 {
		return n.farther(lo, hi, key, r*r*(1+kdPruneSlack), true)
	}
	return n.farther(lo, hi, key, r*(1+kdPruneSlack), false)
}
