package vec

import "math"

// A Form classifies a Metric by how its distance decomposes over the
// axes of a key. It is the one place outside the metrics themselves that
// knows how a distance is summed: an index scores rows, prunes by boxes
// and builds product-quantization tables through it.
//
// A search compares partials, not distances. For FormL2 the partial is
// the sum of squares, so a scan skips the square root on every row and
// takes it once, in Finish, on the answer; for the other forms the
// partial is the distance itself. Finish is monotone, so partials order
// rows as their distances do, though two distinct partials may finish
// to one distance.
type Form uint8

const (
	// FormOther is a metric that does not decompose by axis (cosine, or
	// one the package does not know): no box bounds it.
	FormOther Form = iota
	// FormL2 is the Euclidean metric: a sum of squares, then a root.
	FormL2
	// FormL1 is the Manhattan metric: a sum of absolute differences.
	FormL1
	// FormLinf is the Chebyshev metric: the greatest absolute difference.
	FormLinf
)

// FormOf classifies m.
func FormOf(m Metric) Form {
	switch m.(type) {
	case EuclideanMetric:
		return FormL2
	case ManhattanMetric:
		return FormL1
	case ChebyshevMetric:
		return FormLinf
	}
	return FormOther
}

// Partials scores rows, len(key)-wide vectors laid one after another,
// against key under m, whose form f is: it sets each out[i] to the
// partial distance from key to row i, SquaredEuclidean for FormL2 and
// m.Distance for the rest. rows must hold len(out) rows. Under FormL2
// it scores several rows at once, each with SquaredEuclidean's bits (see
// squaredRows).
func (f Form) Partials(m Metric, key Vector, rows, out []float64) {
	if f == FormL2 {
		squaredRows(key, rows, out)
		return
	}
	w := len(key)
	for i := range out {
		out[i] = m.Distance(key, rows[i*w:][:w])
	}
}

// Finish maps a partial to the distance: the square root for FormL2,
// the partial itself for the rest. The finished partial of a row has the
// bits of m.Distance from key to that row.
func (f Form) Finish(p float64) float64 {
	if f == FormL2 {
		return math.Sqrt(p)
	}
	return p
}

// Limit maps a distance r to the partial a search compares against: r²
// for FormL2, r itself for the rest.
func (f Form) Limit(r float64) float64 {
	if f == FormL2 {
		return r * r
	}
	return r
}

// BoxPartial returns a lower bound on the partial from key to any vector
// inside the axis-aligned box lo, hi (its least and greatest coordinate
// per axis). Each axis contributes its gap to the box, summed in the
// order Partials sums, so in round-to-nearest each term, and so the bound,
// is at most the partial to any vector inside the box. At most one of an
// axis' two gaps is positive, so their sum is that axis' gap, without a
// branch. A NaN coordinate, or an infinite one on an infinite face, makes
// the bound NaN. FormOther has no box bound: it returns 0, and a search
// cuts nothing by it.
func (f Form) BoxPartial(lo, hi []float64, key Vector) float64 {
	lo, hi = lo[:len(key)], hi[:len(key)]
	var b float64
	switch f {
	case FormL2:
		for a, x := range key {
			g := max(lo[a]-x, 0) + max(x-hi[a], 0)
			b += float64(g * g)
		}
	case FormL1:
		for a, x := range key {
			b += max(lo[a]-x, 0) + max(x-hi[a], 0)
		}
	case FormLinf:
		for a, x := range key {
			b = max(b, max(lo[a]-x, 0)+max(x-hi[a], 0))
		}
	}
	return b
}
