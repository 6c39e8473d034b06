// Package vec provides the vector and distance-metric foundation for
// Potluck's key space. Cache keys are variable-length feature vectors
// defined in a metric space (paper §3.2); every index structure and the
// threshold tuner operate on the types defined here.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a variable-length feature vector. It is the universal key
// representation: feature extractors produce Vectors, indices store them,
// and metrics compare them.
type Vector []float64

// ErrDimensionMismatch is returned when two vectors of different lengths
// are compared with a metric that requires equal dimensionality.
var ErrDimensionMismatch = errors.New("vec: dimension mismatch")

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Add returns v + w. It panics if the dimensions differ; use with vectors
// produced by the same extractor.
func (v Vector) Add(w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	mustSameDim(v, w)
	var sum float64
	for i := range v {
		sum += v[i] * w[i]
	}
	return sum
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// Normalize returns v scaled to unit L2 norm. The zero vector is returned
// unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v.Clone()
	}
	return v.Scale(1 / n)
}

// NormalizeL1 returns v scaled so its components sum to 1 in absolute
// value. The zero vector is returned unchanged. Histogram features use
// this so that images of different sizes are comparable.
func (v Vector) NormalizeL1() Vector {
	var sum float64
	for _, x := range v {
		sum += math.Abs(x)
	}
	if sum == 0 {
		return v.Clone()
	}
	return v.Scale(1 / sum)
}

// SizeBytes returns the in-memory footprint of the vector payload,
// used by the importance metric's entry-size term.
func (v Vector) SizeBytes() int { return 8 * len(v) }

func mustSameDim(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dimension mismatch: %d vs %d", len(v), len(w)))
	}
}

// FromString embeds a string into the key space as its byte values, the
// paper's String key support (§4.2: "lexical ordering and comparison for
// strings"). Under lexicographic comparison — the tree-map index — the
// embedding preserves the string order; under Lp metrics it gives a
// crude edit-distance-like dissimilarity suitable for exact or
// near-exact matching.
func FromString(s string) Vector {
	out := make(Vector, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = float64(s[i])
	}
	return out
}

// ToString recovers the string from a FromString embedding. Components
// outside the byte range are clamped.
func ToString(v Vector) string {
	b := make([]byte, len(v))
	for i, x := range v {
		switch {
		case x < 0:
			b[i] = 0
		case x > 255:
			b[i] = 255
		default:
			b[i] = byte(x)
		}
	}
	return string(b)
}

// A Metric defines a notion of distance between two keys. Implementations
// must satisfy the metric axioms on vectors of equal dimension:
// non-negativity, identity of indiscernibles, symmetry, and the triangle
// inequality (cosine distance satisfies a relaxed form; see CosineMetric).
type Metric interface {
	// Distance returns the distance between a and b. Implementations
	// return +Inf for vectors of mismatched dimensions rather than
	// panicking. The cache never compares such vectors: every key of a
	// key type has one length, checked once at core's door.
	Distance(a, b Vector) float64
	// Name returns a short stable identifier used in wire messages
	// and experiment output.
	Name() string
}

// EuclideanMetric is the L2 distance, the default metric in the paper.
type EuclideanMetric struct{}

// Distance implements Metric.
func (EuclideanMetric) Distance(a, b Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Name implements Metric.
func (EuclideanMetric) Name() string { return "euclidean" }

// SquaredEuclidean is the squared L2 distance (no square root), for hot
// paths that only need distance ordering; like Distance it returns +Inf
// on dimension mismatch.
func SquaredEuclidean(a, b Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// ManhattanMetric is the L1 distance.
type ManhattanMetric struct{}

// Distance implements Metric.
func (ManhattanMetric) Distance(a, b Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}

// Name implements Metric.
func (ManhattanMetric) Name() string { return "manhattan" }

// ChebyshevMetric is the L∞ distance.
type ChebyshevMetric struct{}

// Distance implements Metric.
func (ChebyshevMetric) Distance(a, b Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// Name implements Metric.
func (ChebyshevMetric) Name() string { return "chebyshev" }

// CosineMetric is 1 - cos(a, b), in [0, 2]. It is not a true metric (the
// triangle inequality can fail) but is widely used for histogram features;
// Potluck's threshold tuner only requires a consistent dissimilarity.
type CosineMetric struct{}

// Distance implements Metric.
func (CosineMetric) Distance(a, b Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		if na == nb {
			return 0
		}
		return 1
	}
	return 1 - dot/math.Sqrt(na*nb)
}

// Name implements Metric.
func (CosineMetric) Name() string { return "cosine" }

// MetricByName returns the built-in metric with the given name, or an
// error if none is registered. It is used when reconstructing metrics
// from wire messages.
func MetricByName(name string) (Metric, error) {
	switch name {
	case "euclidean", "":
		return EuclideanMetric{}, nil
	case "manhattan":
		return ManhattanMetric{}, nil
	case "chebyshev":
		return ChebyshevMetric{}, nil
	case "cosine":
		return CosineMetric{}, nil
	}
	return nil, fmt.Errorf("vec: unknown metric %q", name)
}
