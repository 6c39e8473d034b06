package feature

import (
	"math"
	"sync"
)

// Per-extractor scratch pooling.
//
// Key generation is the toll every cache lookup pays (Table 1), so the
// extractors recycle their working state across frames: pixel-buffer
// scratch comes from the imaging package's size-classed pools, and the
// keypoint/descriptor scratch below comes from per-extractor
// sync.Pools. The only allocations a steady-state Extract performs are
// the ones whose memory escapes into the returned Result.Key — scratch
// never does (a pooled buffer handed to a future frame must not be
// reachable from a key the cache retains).

// extractScratch is the recycled non-pixel working state of one
// extraction: the keypoint accumulation slice, the top-K selection
// buffer, and one descriptor's worth of vector scratch.
type extractScratch struct {
	pts  []point
	sel  []point
	desc [siftDescriptorDims]float64 // largest descriptor; SURF uses a prefix
}

var scratchPool = sync.Pool{New: func() any { return new(extractScratch) }}

// normalizeInPlace scales v to unit L2 norm in place. Bit-identical to
// vec.Vector.Normalize (zero vectors are left unchanged, otherwise each
// component is multiplied by the same precomputed 1/norm).
func normalizeInPlace(v []float64) {
	var sum float64
	for _, x := range v {
		sum += float64(x * x)
	}
	n := math.Sqrt(sum)
	if n == 0 {
		return
	}
	s := 1 / n
	for i := range v {
		v[i] *= s
	}
}

// normalizeL1InPlace scales v so its components sum to 1 in absolute
// value, in place. Bit-identical to vec.Vector.NormalizeL1.
func normalizeL1InPlace(v []float64) {
	var sum float64
	for _, x := range v {
		sum += math.Abs(x)
	}
	if sum == 0 {
		return
	}
	s := 1 / sum
	for i := range v {
		v[i] *= s
	}
}

// scaleInPlace multiplies every component by s. Bit-identical to
// vec.Vector.Scale.
func scaleInPlace(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}
