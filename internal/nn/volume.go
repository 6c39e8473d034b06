// Package nn is a from-scratch convolutional neural network inference
// engine: volumes, convolution, pooling, activations, dense layers, and
// a small AlexNet-style network (paper citation [29]) used by the image
// recognition benchmark application. Inference is deliberately the
// expensive computation whose results Potluck deduplicates; a
// nearest-centroid head "trained" on generator output provides genuine,
// imperfect classification accuracy with known ground truth.
package nn

import (
	"fmt"

	"repro/internal/imaging"
)

// Volume is a C×H×W feature map, channel-major.
type Volume struct {
	C, H, W int
	Data    []float64
	buf     *imaging.Gray // the pooled buffer Data lies in, if any
}

// NewVolume returns a zero volume of the given dimensions.
func NewVolume(c, h, w int) *Volume {
	if c < 0 || h < 0 || w < 0 {
		panic(fmt.Sprintf("nn: negative volume dims %dx%dx%d", c, h, w))
	}
	return &Volume{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// getVolume returns a c×h×w volume whose Data is a buffer from
// imaging's size-classed pool, with unspecified contents: every layer's
// Forward writes each sample of its output. Network.Forward hands each
// intermediate volume back with putVolume once the next layer has read
// it.
func getVolume(c, h, w int) *Volume {
	g := imaging.GetGray(c*h*w, 1)
	return &Volume{C: c, H: h, W: w, Data: g.Pix, buf: g}
}

// putVolume returns v's buffer to the pool. Neither v nor any slice of
// its Data may be used afterwards. A volume not from getVolume is left
// alone.
func putVolume(v *Volume) {
	if v.buf != nil {
		imaging.PutGray(v.buf)
		v.buf, v.Data = nil, nil
	}
}

// At returns the sample at (channel, y, x); out-of-bounds reads return 0
// (zero padding).
func (v *Volume) At(c, y, x int) float64 {
	if c < 0 || y < 0 || x < 0 || c >= v.C || y >= v.H || x >= v.W {
		return 0
	}
	return v.Data[(c*v.H+y)*v.W+x]
}

// Set stores a value at (channel, y, x); out-of-bounds writes are
// ignored.
func (v *Volume) Set(c, y, x int, val float64) {
	if c < 0 || y < 0 || x < 0 || c >= v.C || y >= v.H || x >= v.W {
		return
	}
	v.Data[(c*v.H+y)*v.W+x] = val
}

// Flat returns the underlying data as a flat vector (shared storage).
func (v *Volume) Flat() []float64 { return v.Data }
