package feature

import (
	"math"

	"repro/internal/imaging"
	"repro/internal/vec"
)

// FAST is the Features-from-Accelerated-Segment-Test corner detector
// (paper citation [42]): a pixel is a corner when at least 9 contiguous
// pixels on the Bresenham circle of radius 3 around it are all brighter
// or all darker than the center by a threshold. It is the cheapest
// detector in Table 1 and the paper's choice "for motion estimation
// within the AR applications" (§5.2). The key is an 8×8 grid of corner
// densities.
type FAST struct {
	// Threshold is the brightness delta; 0 means the default 0.15.
	Threshold float64
}

// fastCircle is the radius-3 Bresenham circle (16 offsets, clockwise).
var fastCircle = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// Name implements Extractor.
func (FAST) Name() string { return "fast" }

// Usage implements Extractor.
func (FAST) Usage() string { return "Detection" }

// Extract implements Extractor.
func (f FAST) Extract(img *imaging.RGB) Result {
	th := f.Threshold
	if th <= 0 {
		th = 0.15
	}
	sc := scratchPool.Get().(*extractScratch)
	g := img.GrayInto(imaging.GetGray(img.W, img.H))
	pts := sc.pts[:0]
	for y := 3; y < g.H-3; y++ {
		for x := 3; x < g.W-3; x++ {
			c := g.Pix[y*g.W+x]
			// Fast rejection: a 9-contiguous segment spans at least two of
			// the four compass points, so fewer than two deviating compass
			// pixels cannot be a corner.
			dev := 0
			for _, i := range [4]int{0, 4, 8, 12} {
				v := g.Pix[(y+fastCircle[i][1])*g.W+x+fastCircle[i][0]]
				if v > c+th || v < c-th {
					dev++
				}
			}
			if dev < 2 {
				continue
			}
			if fastSegment(g, x, y, c, th) {
				pts = append(pts, point{x: x, y: y, weight: 1})
			}
		}
	}
	sc.pts = pts
	key := gridPool(pts, g.W, g.H, 8, 8)
	n := len(pts)
	imaging.PutGray(g)
	scratchPool.Put(sc)
	// Payload: (x, y) plus a small patch per corner, as a tracker would
	// retain.
	return Result{Key: key, RawBytes: n * 56, Keypoints: n}
}

// fastSegment reports whether 9 contiguous circle pixels are all
// brighter or all darker than c by th.
func fastSegment(g *imaging.Gray, x, y int, c, th float64) bool {
	var brighter, darker [32]bool
	for i, o := range fastCircle {
		v := g.Pix[(y+o[1])*g.W+x+o[0]]
		brighter[i], brighter[i+16] = v > c+th, v > c+th
		darker[i], darker[i+16] = v < c-th, v < c-th
	}
	run := 0
	for i := 0; i < 32; i++ {
		if brighter[i] {
			run++
			if run >= 9 {
				return true
			}
		} else {
			run = 0
		}
	}
	run = 0
	for i := 0; i < 32; i++ {
		if darker[i] {
			run++
			if run >= 9 {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}

// Harris is the Harris-Stephens corner detector (paper citation [24]):
// the response R = det(M) − k·tr(M)² of the Gaussian-windowed structure
// tensor M, thresholded and grid-pooled into an 8×8 density key. It
// costs more than FAST (three convolutions) but less than the
// descriptor-based features, matching Table 1's ordering.
type Harris struct {
	// K is the Harris sensitivity parameter; 0 means the usual 0.04.
	K float64
	// Threshold on the response; 0 means the default 1e-4.
	Threshold float64
}

// Name implements Extractor.
func (Harris) Name() string { return "harris" }

// Usage implements Extractor.
func (Harris) Usage() string { return "Detection" }

// Extract implements Extractor.
func (h Harris) Extract(img *imaging.RGB) Result {
	k := h.K
	if k <= 0 {
		k = 0.04
	}
	th := h.Threshold
	if th <= 0 {
		th = 1e-4
	}
	sc := scratchPool.Get().(*extractScratch)
	g := img.GrayInto(imaging.GetGray(img.W, img.H))
	w, ht := g.W, g.H
	gx := imaging.GetGray(w, ht)
	gy := imaging.GetGray(w, ht)
	imaging.GradientsInto(gx, gy, g)
	ixx := imaging.GetGray(w, ht)
	iyy := imaging.GetGray(w, ht)
	ixy := imaging.GetGray(w, ht)
	imaging.ParallelRows(ht, w*ht*6, func(y0, y1 int) {
		for i := y0 * w; i < y1*w; i++ {
			ixx.Pix[i] = gx.Pix[i] * gx.Pix[i]
			iyy.Pix[i] = gy.Pix[i] * gy.Pix[i]
			ixy.Pix[i] = gx.Pix[i] * gy.Pix[i]
		}
	})
	// Gaussian window over the structure tensor (in-place blurs reuse
	// the tensor buffers through the pooled separable passes).
	ixx = imaging.BlurInto(ixx, ixx, 1.0)
	iyy = imaging.BlurInto(iyy, iyy, 1.0)
	ixy = imaging.BlurInto(ixy, ixy, 1.0)
	// Precompute the response over the whole image once; the previous
	// implementation recomputed a neighbour's response for every local-max
	// probe (up to 9 evaluations per candidate). Same expression, so the
	// selected corners — and their weights — are identical.
	resp := gx // recycle: the gradients are no longer needed
	imaging.ParallelRows(ht, w*ht*8, func(y0, y1 int) {
		for i := y0 * w; i < y1*w; i++ {
			det := float64(ixx.Pix[i]*iyy.Pix[i]) - float64(ixy.Pix[i]*ixy.Pix[i])
			tr := ixx.Pix[i] + iyy.Pix[i]
			resp.Pix[i] = det - float64(k*tr*tr)
		}
	})
	pts := sc.pts[:0]
	for y := 1; y < ht-1; y++ {
		row := y * w
		for x := 1; x < w-1; x++ {
			r := resp.Pix[row+x]
			if r > th && grayLocalMax(resp, x, y, r) {
				pts = append(pts, point{x: x, y: y, weight: r})
			}
		}
	}
	sc.pts = pts
	key := gridPool(pts, w, ht, 8, 8)
	n := len(pts)
	imaging.PutGray(g)
	imaging.PutGray(gx)
	imaging.PutGray(gy)
	imaging.PutGray(ixx)
	imaging.PutGray(iyy)
	imaging.PutGray(ixy)
	scratchPool.Put(sc)
	return Result{Key: key, RawBytes: n * 72, Keypoints: n}
}

// isLocalMax reports whether value r at (x, y) is a strict 8-neighbour
// maximum of f.
func isLocalMax(f func(x, y int) float64, x, y int, r float64) bool {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if f(x+dx, y+dy) > r {
				return false
			}
		}
	}
	return true
}

// orientationHistogram accumulates an nbins histogram of gradient
// orientation around (x, y) within the given radius, weighted by
// magnitude; shared by the SIFT- and SURF-like descriptors. Retained as
// the reference implementation for the equivalence tests; the hot path
// is orientationHistogramInto.
func orientationHistogram(mag, ori *imaging.Gray, x, y, radius, nbins int) vec.Vector {
	h := make(vec.Vector, nbins)
	orientationHistogramInto(h, mag, ori, x, y, radius)
	return h
}

// orientationHistogramInto accumulates a len(h)-bin orientation
// histogram into h (zeroed first). Windows that lie fully inside the
// image skip the border-replicating At in favour of direct indexing —
// identical values, no clamping arithmetic.
func orientationHistogramInto(h []float64, mag, ori *imaging.Gray, x, y, radius int) {
	for i := range h {
		h[i] = 0
	}
	nbins := len(h)
	fb := float64(nbins)
	w, ht := ori.W, ori.H
	if x >= radius && x+radius < w && y >= radius && y+radius < ht {
		for dy := -radius; dy <= radius; dy++ {
			row := (y+dy)*w + x
			for dx := -radius; dx <= radius; dx++ {
				b := int(ori.Pix[row+dx] / math.Pi * fb)
				if b >= nbins {
					b = nbins - 1
				}
				h[b] += mag.Pix[row+dx]
			}
		}
		return
	}
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			b := int(ori.At(x+dx, y+dy) / math.Pi * fb)
			if b >= nbins {
				b = nbins - 1
			}
			h[b] += mag.At(x+dx, y+dy)
		}
	}
}
