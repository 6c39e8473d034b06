package feature

import (
	"sync"

	"repro/internal/imaging"
	"repro/internal/vec"
)

// SURF is a Speeded-Up-Robust-Features-style extractor (paper citation
// [12]). Interest points are maxima of an integral-image box-filter
// Hessian approximation across three scales; each keypoint gets a 64-D
// descriptor of Haar-wavelet responses over a 4×4 subregion grid. The
// cache key aggregates the descriptors (mean descriptor ⊕ 8×8 density
// grid, 128 dims). Table 1 places SURF well below SIFT in cost because
// box filters on the summed-area table replace Gaussian pyramids.
type SURF struct {
	// Threshold on the Hessian response; 0 means the default 1e-4.
	Threshold float64
	// MaxKeypoints caps the keypoints kept (0 = 500, the paper's
	// "around 500 features ... detected in each image").
	MaxKeypoints int
}

// Name implements Extractor.
func (SURF) Name() string { return "surf" }

// Usage implements Extractor.
func (SURF) Usage() string { return "Recognition" }

const surfDescriptorDims = 64

// surfScales are the box-filter sizes of the three Hessian octaves.
var surfScales = [3]int{3, 5, 7}

// integralPool recycles summed-area tables across frames (the S buffer
// is the second-largest allocation on the SURF path after the response
// image).
var integralPool = sync.Pool{New: func() any { return new(imaging.Integral) }}

// Extract implements Extractor.
func (s SURF) Extract(img *imaging.RGB) Result {
	th := s.Threshold
	if th <= 0 {
		th = 1e-4
	}
	maxKP := s.MaxKeypoints
	if maxKP <= 0 {
		maxKP = 500
	}
	sc := scratchPool.Get().(*extractScratch)
	g := img.GrayInto(imaging.GetGray(img.W, img.H))
	it := integralPool.Get().(*imaging.Integral)
	it.From(g)
	// Hessian responses at three box-filter sizes; the response image is
	// recycled across scales (each scale's maxima are collected before the
	// next scale overwrites it).
	pts := sc.pts[:0]
	resp := imaging.GetGray(g.W, g.H)
	for _, l := range surfScales {
		hessianResponseInto(resp, it, g.W, g.H, l)
		for y := l; y < g.H-l; y++ {
			row := y * g.W
			for x := l; x < g.W-l; x++ {
				r := resp.Pix[row+x]
				if r > th && grayLocalMax(resp, x, y, r) {
					pts = append(pts, point{x: x, y: y, weight: r})
				}
			}
		}
	}
	imaging.PutGray(resp)
	sc.pts = pts // keep the grown buffer for the next frame
	kept := pts
	if len(kept) > maxKP {
		kept = topByWeight(kept, maxKP, &sc.sel)
	}
	// Descriptor per keypoint: Haar responses over a 4×4 grid. The mean
	// escapes into the key, so it is freshly allocated; the per-keypoint
	// descriptor lives in scratch.
	mean := make(vec.Vector, surfDescriptorDims)
	d := sc.desc[:surfDescriptorDims]
	for _, p := range kept {
		surfDescriptorInto(d, it, p.x, p.y)
		for i := range mean {
			mean[i] += d[i]
		}
	}
	if len(kept) > 0 {
		scaleInPlace(mean, 1/float64(len(kept)))
		normalizeInPlace(mean)
	}
	key := append(mean, gridPool(kept, g.W, g.H, 8, 8)...)
	n := len(kept)
	imaging.PutGray(g)
	integralPool.Put(it)
	scratchPool.Put(sc)
	return Result{
		Key:       key,
		RawBytes:  n * surfDescriptorDims, // 1 byte/component payload
		Keypoints: n,
	}
}

// grayLocalMax reports whether value r at (x, y) is a strict
// 8-neighbour maximum of g. The caller guarantees x±1, y±1 are in
// bounds.
func grayLocalMax(g *imaging.Gray, x, y int, r float64) bool {
	w := g.W
	for dy := -1; dy <= 1; dy++ {
		row := (y + dy) * w
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if g.Pix[row+x+dx] > r {
				return false
			}
		}
	}
	return true
}

// hessianResponse approximates |det H| with box filters of size l on the
// integral image.
func hessianResponse(it *imaging.Integral, w, h, l int) *imaging.Gray {
	out := imaging.NewGray(w, h)
	hessianResponseInto(out, it, w, h, l)
	return out
}

// hessianResponseInto computes the box-filter Hessian response into
// out (already sized w×h). Interior pixels — where every box lies
// inside the image — evaluate via unchecked integral sums; the border
// uses the clamped Sum. Both paths compute the identical expressions,
// and the rows are computed in parallel bands.
func hessianResponseInto(out *imaging.Gray, it *imaging.Integral, w, h, l int) {
	area := float64(l * l)
	lo := l + l/2     // first x (and y) whose boxes are all in bounds
	hi := l + l/2 + 1 // hi such that coordinate ≤ dim-hi is in bounds
	imaging.ParallelRows(h, w*h*30, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			interiorY := y >= lo && y <= h-hi
			row := y * w
			for x := 0; x < w; x++ {
				var dxx, dyy, dxy float64
				if interiorY && x >= lo && x <= w-hi {
					// Dxx: [-1 2 -1] horizontally with boxes of width l.
					dxx = (2*it.SumUnchecked(x-l/2, y-l/2, x+l/2+1, y+l/2+1) -
						it.SumUnchecked(x-l/2-l, y-l/2, x-l/2, y+l/2+1) -
						it.SumUnchecked(x+l/2+1, y-l/2, x+l/2+1+l, y+l/2+1)) / area
					dyy = (2*it.SumUnchecked(x-l/2, y-l/2, x+l/2+1, y+l/2+1) -
						it.SumUnchecked(x-l/2, y-l/2-l, x+l/2+1, y-l/2) -
						it.SumUnchecked(x-l/2, y+l/2+1, x+l/2+1, y+l/2+1+l)) / area
					dxy = (it.SumUnchecked(x-l, y-l, x, y) + it.SumUnchecked(x+1, y+1, x+1+l, y+1+l) -
						it.SumUnchecked(x+1, y-l, x+1+l, y) - it.SumUnchecked(x-l, y+1, x, y+1+l)) / area
				} else {
					dxx = (2*it.Sum(x-l/2, y-l/2, x+l/2+1, y+l/2+1) -
						it.Sum(x-l/2-l, y-l/2, x-l/2, y+l/2+1) -
						it.Sum(x+l/2+1, y-l/2, x+l/2+1+l, y+l/2+1)) / area
					dyy = (2*it.Sum(x-l/2, y-l/2, x+l/2+1, y+l/2+1) -
						it.Sum(x-l/2, y-l/2-l, x+l/2+1, y-l/2) -
						it.Sum(x-l/2, y+l/2+1, x+l/2+1, y+l/2+1+l)) / area
					dxy = (it.Sum(x-l, y-l, x, y) + it.Sum(x+1, y+1, x+1+l, y+1+l) -
						it.Sum(x+1, y-l, x+1+l, y) - it.Sum(x-l, y+1, x, y+1+l)) / area
				}
				v := float64(dxx*dyy) - float64(0.81*dxy*dxy)
				if v < 0 {
					v = 0
				}
				out.Pix[row+x] = v
			}
		}
	})
}

// surfDescriptor computes 4×4 subregions × (Σdx, Σ|dx|, Σdy, Σ|dy|) from
// Haar responses in a 16×16 window. Retained as the allocation-per-call
// reference implementation for the equivalence tests; the hot path is
// surfDescriptorInto.
func surfDescriptor(it *imaging.Integral, cx, cy int) vec.Vector {
	d := make(vec.Vector, surfDescriptorDims)
	surfDescriptorInto(d, it, cx, cy)
	return d
}

// surfDescriptorInto computes the 64-D SURF descriptor into d
// (len surfDescriptorDims), L2-normalized in place. Keypoints whose
// 16×16 window (plus the 2-pixel Haar reach) lies inside the image use
// unchecked integral sums.
func surfDescriptorInto(d []float64, it *imaging.Integral, cx, cy int) {
	unchecked := cx >= 10 && cx+9 <= it.W && cy >= 10 && cy+9 <= it.H
	idx := 0
	for sy := 0; sy < 4; sy++ {
		for sx := 0; sx < 4; sx++ {
			var sdx, sadx, sdy, sady float64
			for py := 0; py < 4; py++ {
				for px := 0; px < 4; px++ {
					x := cx - 8 + sx*4 + px
					y := cy - 8 + sy*4 + py
					var dx, dy float64
					if unchecked {
						dx = it.SumUnchecked(x, y-1, x+2, y+1) - it.SumUnchecked(x-2, y-1, x, y+1)
						dy = it.SumUnchecked(x-1, y, x+1, y+2) - it.SumUnchecked(x-1, y-2, x+1, y)
					} else {
						dx = it.Sum(x, y-1, x+2, y+1) - it.Sum(x-2, y-1, x, y+1)
						dy = it.Sum(x-1, y, x+1, y+2) - it.Sum(x-1, y-2, x+1, y)
					}
					sdx += dx
					sdy += dy
					if dx < 0 {
						sadx -= dx
					} else {
						sadx += dx
					}
					if dy < 0 {
						sady -= dy
					} else {
						sady += dy
					}
				}
			}
			d[idx], d[idx+1], d[idx+2], d[idx+3] = sdx, sadx, sdy, sady
			idx += 4
		}
	}
	normalizeInPlace(d)
}

// SIFT is a Scale-Invariant-Feature-Transform-style extractor (paper
// citation [35]): a Gaussian scale-space pyramid, difference-of-Gaussian
// extrema detection across octaves, and a 128-D gradient-orientation
// descriptor per keypoint (4×4 spatial bins × 8 orientations). The key
// aggregates descriptors like SURF's. Building the pyramid dominates the
// cost, which is why SIFT tops Table 1 by orders of magnitude.
type SIFT struct {
	// Octaves is the pyramid depth (0 = 3).
	Octaves int
	// Threshold on the DoG response magnitude; 0 means the default 0.01.
	Threshold float64
	// MaxKeypoints caps retained keypoints (0 = 500).
	MaxKeypoints int
}

// Name implements Extractor.
func (SIFT) Name() string { return "sift" }

// Usage implements Extractor.
func (SIFT) Usage() string { return "Recognition" }

const siftDescriptorDims = 128

// siftSigmas are the six blur levels per octave (SIFT's s+3 with s=3).
var siftSigmas = [6]float64{0.8, 1.1, 1.5, 2.1, 2.9, 4.0}

// Extract implements Extractor.
func (s SIFT) Extract(img *imaging.RGB) Result {
	octaves := s.Octaves
	if octaves <= 0 {
		octaves = 3
	}
	th := s.Threshold
	if th <= 0 {
		th = 0.01
	}
	maxKP := s.MaxKeypoints
	if maxKP <= 0 {
		maxKP = 500
	}
	sc := scratchPool.Get().(*extractScratch)
	base := img.GrayInto(imaging.GetGray(img.W, img.H))
	pts := sc.pts[:0]
	// grad0 is octave 0's blurred[1], the gradient field the descriptors
	// sample from. (Deeper octaves' levels are pure pyramid scratch.)
	var grad0 *imaging.Gray
	var blurred [len(siftSigmas)]*imaging.Gray
	cur := base
	scale := 1
	for o := 0; o < octaves && cur.W >= 16 && cur.H >= 16; o++ {
		w, h := cur.W, cur.H
		for i, sg := range siftSigmas {
			blurred[i] = imaging.BlurInto(imaging.GetGray(w, h), cur, sg)
		}
		// DoG layers and 2-D extrema (the scale dimension is collapsed:
		// the middle layers vote). One recycled DoG buffer serves all
		// layers — each layer's extrema are collected before the next
		// overwrites it.
		dog := imaging.GetGray(w, h)
		for li := 1; li < len(blurred)-1; li++ {
			a, b := blurred[li-1], blurred[li]
			for i := range dog.Pix {
				dog.Pix[i] = b.Pix[i] - a.Pix[i]
			}
			for y := 1; y < h-1; y++ {
				for x := 1; x < w-1; x++ {
					v := dog.Pix[y*w+x]
					av := v
					if av < 0 {
						av = -v
					}
					if av < th {
						continue
					}
					if isExtremum(dog, x, y, v) {
						pts = append(pts, point{x: x * scale, y: y * scale, weight: av})
					}
				}
			}
		}
		imaging.PutGray(dog)
		next := imaging.ResizeInto(imaging.GetGray(w/2, h/2), blurred[len(blurred)-1], w/2, h/2)
		if cur != base {
			imaging.PutGray(cur)
		}
		for i, bl := range blurred {
			if o == 0 && i == 1 {
				grad0 = bl
				continue
			}
			imaging.PutGray(bl)
		}
		cur = next
		scale *= 2
	}
	if cur != base {
		imaging.PutGray(cur)
	}
	sc.pts = pts
	kept := pts
	if len(kept) > maxKP {
		kept = topByWeight(kept, maxKP, &sc.sel)
	}
	// Descriptors from the base-octave gradient field, computed in one
	// fused magnitude+orientation pass into pooled buffers.
	mean := make(vec.Vector, siftDescriptorDims)
	if grad0 != nil && len(kept) > 0 {
		mag := imaging.GetGray(grad0.W, grad0.H)
		ori := imaging.GetGray(grad0.W, grad0.H)
		imaging.GradientMagnitudeOrientationInto(mag, ori, grad0)
		d := sc.desc[:siftDescriptorDims]
		for _, p := range kept {
			siftDescriptorInto(d, mag, ori, p.x, p.y)
			for i := range mean {
				mean[i] += d[i]
			}
		}
		scaleInPlace(mean, 1/float64(len(kept)))
		normalizeInPlace(mean)
		imaging.PutGray(mag)
		imaging.PutGray(ori)
	}
	key := append(mean, gridPool(kept, base.W, base.H, 8, 8)...)
	n := len(kept)
	if grad0 != nil {
		imaging.PutGray(grad0)
	}
	imaging.PutGray(base)
	scratchPool.Put(sc)
	return Result{
		Key:       key,
		RawBytes:  n * siftDescriptorDims * 2, // 2 bytes/component
		Keypoints: n,
	}
}

func isExtremum(dog *imaging.Gray, x, y int, v float64) bool {
	if v > 0 {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				if dog.Pix[(y+dy)*dog.W+x+dx] >= v {
					return false
				}
			}
		}
		return true
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if dog.Pix[(y+dy)*dog.W+x+dx] <= v {
				return false
			}
		}
	}
	return true
}

// siftDescriptor computes a 4×4 spatial grid of 8-bin orientation
// histograms over a 16×16 window. Retained as the allocation-per-call
// reference implementation for the equivalence tests; the hot path is
// siftDescriptorInto.
func siftDescriptor(mag, ori *imaging.Gray, cx, cy int) vec.Vector {
	d := make(vec.Vector, siftDescriptorDims)
	for sy := 0; sy < 4; sy++ {
		for sx := 0; sx < 4; sx++ {
			h := orientationHistogram(mag, ori, cx-8+sx*4+2, cy-8+sy*4+2, 2, 8)
			copy(d[(sy*4+sx)*8:], h)
		}
	}
	return d.Normalize()
}

// siftDescriptorInto computes the 128-D SIFT descriptor into d
// (len siftDescriptorDims), L2-normalized in place, without allocating.
func siftDescriptorInto(d []float64, mag, ori *imaging.Gray, cx, cy int) {
	for sy := 0; sy < 4; sy++ {
		for sx := 0; sx < 4; sx++ {
			b := (sy*4 + sx) * 8
			orientationHistogramInto(d[b:b+8], mag, ori, cx-8+sx*4+2, cy-8+sy*4+2, 2)
		}
	}
	normalizeInPlace(d)
}

// topByWeight keeps the n heaviest points (selection without full
// sort), using *scratch as the mutable working copy so repeated calls
// allocate only when the point count grows.
func topByWeight(pts []point, n int, scratch *[]point) []point {
	if len(pts) <= n {
		return pts
	}
	if cap(*scratch) < len(pts) {
		*scratch = make([]point, len(pts))
	}
	out := (*scratch)[:len(pts)]
	copy(out, pts)
	// Partial selection on weight; n is small (≤500).
	lo, hi := 0, len(out)-1
	for lo < hi {
		p := out[hi].weight
		i := lo
		for j := lo; j < hi; j++ {
			if out[j].weight > p {
				out[i], out[j] = out[j], out[i]
				i++
			}
		}
		out[i], out[hi] = out[hi], out[i]
		switch {
		case i == n:
			return out[:n]
		case i < n:
			lo = i + 1
		default:
			hi = i - 1
		}
	}
	return out[:n]
}
