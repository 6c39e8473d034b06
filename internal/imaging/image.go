// Package imaging provides the raster-image substrate for Potluck's
// vision ecosystem: grayscale and RGB float images, convolution,
// gradients, Gaussian smoothing, resampling, integral images, and
// affine/projective warping. Feature extraction (package feature), the
// synthetic datasets (package synth), the recognizer (package nn) and
// the AR renderer's warp fast path (package render) are all built on it.
//
// The resampling, blur and noise loops round every product that feeds a
// sum on its own (float64(...)), so that no GOARCH fuses it into a
// multiply-add and the recognizer sees the same pixels everywhere.
package imaging

import (
	"fmt"
	"math"
)

// Gray is a grayscale image with float64 samples in [0, 1], row-major.
type Gray struct {
	W, H int
	Pix  []float64
}

// NewGray returns a black W×H grayscale image.
func NewGray(w, h int) *Gray {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imaging: negative dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the sample at (x, y), clamping coordinates to the image
// bounds (border replication), which keeps convolution and warping free
// of bounds checks at call sites.
func (g *Gray) At(x, y int) float64 {
	if g.W == 0 || g.H == 0 {
		return 0
	}
	x = clampInt(x, 0, g.W-1)
	y = clampInt(y, 0, g.H-1)
	return g.Pix[y*g.W+x]
}

// Set stores v at (x, y); out-of-bounds writes are ignored.
func (g *Gray) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// Bilinear samples the image at fractional coordinates with bilinear
// interpolation and border replication.
func (g *Gray) Bilinear(x, y float64) float64 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)
	v00 := g.At(x0, y0)
	v10 := g.At(x0+1, y0)
	v01 := g.At(x0, y0+1)
	v11 := g.At(x0+1, y0+1)
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// Mean returns the average sample value.
func (g *Gray) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	var sum float64
	for _, v := range g.Pix {
		sum += v
	}
	return sum / float64(len(g.Pix))
}

// RGB is a color image with three float64 channels per pixel in [0, 1],
// stored interleaved (r, g, b), row-major.
type RGB struct {
	W, H int
	Pix  []float64 // len = 3*W*H
}

// NewRGB returns a black W×H color image.
func NewRGB(w, h int) *RGB {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imaging: negative dimensions %dx%d", w, h))
	}
	return &RGB{W: w, H: h, Pix: make([]float64, 3*w*h)}
}

// At returns the (r, g, b) sample at (x, y) with border replication.
func (m *RGB) At(x, y int) (r, g, b float64) {
	if m.W == 0 || m.H == 0 {
		return 0, 0, 0
	}
	x = clampInt(x, 0, m.W-1)
	y = clampInt(y, 0, m.H-1)
	i := 3 * (y*m.W + x)
	return m.Pix[i], m.Pix[i+1], m.Pix[i+2]
}

// Set stores (r, g, b) at (x, y); out-of-bounds writes are ignored.
func (m *RGB) Set(x, y int, r, g, b float64) {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return
	}
	i := 3 * (y*m.W + x)
	m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
}

// Clone returns a deep copy.
func (m *RGB) Clone() *RGB {
	out := NewRGB(m.W, m.H)
	copy(out.Pix, m.Pix)
	return out
}

// Gray converts to grayscale using the Rec. 601 luma weights.
func (m *RGB) Gray() *Gray {
	return m.GrayInto(nil)
}

// GrayInto converts to grayscale using the Rec. 601 luma weights,
// writing into dst (reshaped to m's dimensions; nil allocates).
// Returns dst.
func (m *RGB) GrayInto(dst *Gray) *Gray {
	dst = reshapeGray(dst, m.W, m.H)
	w := m.W
	ParallelRows(m.H, w*m.H*3, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				i := 3 * (y*w + x)
				dst.Pix[y*w+x] = 0.299*m.Pix[i] + 0.587*m.Pix[i+1] + 0.114*m.Pix[i+2]
			}
		}
	})
	return dst
}

// Fill sets every pixel to (r, g, b).
func (m *RGB) Fill(r, g, b float64) {
	for i := 0; i < len(m.Pix); i += 3 {
		m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
	}
}

// Clamp01 limits v to [0, 1].
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
