package imaging

import (
	"math"
	"math/rand"
	"sync"
)

// Kernel is a square convolution kernel (odd side length).
type Kernel struct {
	Size int // side length, odd
	W    []float64
}

// checkNoAlias panics when dst and src share a pixel buffer: the
// single-pass kernels read src while writing dst, so aliasing would
// corrupt the output. (BlurInto is the exception — it stages through a
// pooled scratch image and explicitly allows dst == src.)
func checkNoAlias(dst, src *Gray, op string) {
	if dst == src || (len(dst.Pix) > 0 && len(src.Pix) > 0 && &dst.Pix[0] == &src.Pix[0]) {
		panic("imaging: " + op + ": dst must not alias src")
	}
}

// checkNoAliasRGB is checkNoAlias for color images.
func checkNoAliasRGB(dst, src *RGB, op string) {
	if dst == src || (len(dst.Pix) > 0 && len(src.Pix) > 0 && &dst.Pix[0] == &src.Pix[0]) {
		panic("imaging: " + op + ": dst must not alias src")
	}
}

// Convolve applies k to g with border replication.
func Convolve(g *Gray, k Kernel) *Gray {
	return ConvolveInto(nil, g, k)
}

// ConvolveInto applies k to src with border replication, writing the
// result into dst (reshaped to src's dimensions; nil allocates). dst
// must not alias src. Returns dst. Output is bit-identical to the
// sequential single-goroutine evaluation regardless of parallelism.
func ConvolveInto(dst, src *Gray, k Kernel) *Gray {
	dst = reshapeGray(dst, src.W, src.H)
	checkNoAlias(dst, src, "ConvolveInto")
	ParallelRows(src.H, src.W*src.H*k.Size*k.Size, func(y0, y1 int) {
		convolveBand(dst, src, k, y0, y1)
	})
	return dst
}

// convolveBand computes output rows [y0, y1) of the convolution. The
// interior (all taps in bounds) uses direct indexing; borders replicate
// via At. Both paths accumulate taps in the identical (ky, kx) order,
// so interior and border pixels — and parallel and sequential runs —
// produce the same bits.
func convolveBand(dst, src *Gray, k Kernel, y0, y1 int) {
	w, h := src.W, src.H
	r := k.Size / 2
	size := k.Size
	kw := k.W
	for y := y0; y < y1; y++ {
		row := y * w
		x := 0
		if y >= r && y+r < h {
			for ; x < r && x < w; x++ {
				dst.Pix[row+x] = convolvePixelBorder(src, kw, size, r, x, y)
			}
			for ; x+r < w; x++ {
				var sum float64
				ki := 0
				for ky := 0; ky < size; ky++ {
					base := (y+ky-r)*w + x - r
					for kx := 0; kx < size; kx++ {
						sum += float64(kw[ki] * src.Pix[base+kx])
						ki++
					}
				}
				dst.Pix[row+x] = sum
			}
		}
		for ; x < w; x++ {
			dst.Pix[row+x] = convolvePixelBorder(src, kw, size, r, x, y)
		}
	}
}

// convolvePixelBorder evaluates one output pixel with border
// replication, in the same tap order as the interior fast path.
func convolvePixelBorder(src *Gray, kw []float64, size, r, x, y int) float64 {
	var sum float64
	ki := 0
	for ky := 0; ky < size; ky++ {
		for kx := 0; kx < size; kx++ {
			sum += float64(kw[ki] * src.At(x+kx-r, y+ky-r))
			ki++
		}
	}
	return sum
}

// SobelX and SobelY are the standard 3×3 Sobel gradient kernels.
var (
	SobelX = Kernel{Size: 3, W: []float64{-1, 0, 1, -2, 0, 2, -1, 0, 1}}
	SobelY = Kernel{Size: 3, W: []float64{-1, -2, -1, 0, 0, 0, 1, 2, 1}}
)

// Gradients returns the horizontal and vertical Sobel derivatives of g.
func Gradients(g *Gray) (gx, gy *Gray) {
	return GradientsInto(nil, nil, g)
}

// GradientsInto computes both Sobel derivatives of src in one fused
// pass over the image (one read of src produces both outputs), writing
// into gx and gy (reshaped; nil allocates). Neither destination may
// alias src. The per-pixel accumulation replicates Convolve's tap
// order exactly, so the fused pass is bit-identical to two Convolve
// calls.
func GradientsInto(gx, gy, src *Gray) (*Gray, *Gray) {
	gx = reshapeGray(gx, src.W, src.H)
	gy = reshapeGray(gy, src.W, src.H)
	checkNoAlias(gx, src, "GradientsInto")
	checkNoAlias(gy, src, "GradientsInto")
	ParallelRows(src.H, src.W*src.H*18, func(y0, y1 int) {
		sobelBand(gx, gy, src, y0, y1)
	})
	return gx, gy
}

// sobelBand computes rows [y0, y1) of both Sobel derivatives.
func sobelBand(gx, gy, src *Gray, y0, y1 int) {
	w, h := src.W, src.H
	xw, yw := SobelX.W, SobelY.W
	for y := y0; y < y1; y++ {
		interiorY := y >= 1 && y+1 < h
		row := y * w
		for x := 0; x < w; x++ {
			var sx, sy float64
			if interiorY && x >= 1 && x+1 < w {
				ki := 0
				for ky := 0; ky < 3; ky++ {
					base := (y+ky-1)*w + x - 1
					for kx := 0; kx < 3; kx++ {
						v := src.Pix[base+kx]
						sx += float64(xw[ki] * v)
						sy += float64(yw[ki] * v)
						ki++
					}
				}
			} else {
				ki := 0
				for ky := 0; ky < 3; ky++ {
					for kx := 0; kx < 3; kx++ {
						v := src.At(x+kx-1, y+ky-1)
						sx += float64(xw[ki] * v)
						sy += float64(yw[ki] * v)
						ki++
					}
				}
			}
			gx.Pix[row+x] = sx
			gy.Pix[row+x] = sy
		}
	}
}

// GradientMagnitudeOrientation returns per-pixel gradient magnitude and
// orientation (radians in [0, π), unsigned).
func GradientMagnitudeOrientation(g *Gray) (mag, ori *Gray) {
	return GradientMagnitudeOrientationInto(nil, nil, g)
}

// GradientMagnitudeOrientationInto computes gradient magnitude and
// unsigned orientation in a single fused pass: the Sobel derivatives
// are evaluated per pixel and consumed immediately, so no intermediate
// gradient images are materialized at all. mag and ori are reshaped
// (nil allocates) and must not alias src. Bit-identical to the
// unfused Gradients + Hypot/Atan2 pipeline.
func GradientMagnitudeOrientationInto(mag, ori, src *Gray) (*Gray, *Gray) {
	mag = reshapeGray(mag, src.W, src.H)
	ori = reshapeGray(ori, src.W, src.H)
	checkNoAlias(mag, src, "GradientMagnitudeOrientationInto")
	checkNoAlias(ori, src, "GradientMagnitudeOrientationInto")
	ParallelRows(src.H, src.W*src.H*40, func(y0, y1 int) {
		magOriBand(mag, ori, src, y0, y1)
	})
	return mag, ori
}

// magOriBand computes rows [y0, y1) of the fused magnitude/orientation
// pass.
func magOriBand(mag, ori, src *Gray, y0, y1 int) {
	w, h := src.W, src.H
	xw, yw := SobelX.W, SobelY.W
	for y := y0; y < y1; y++ {
		interiorY := y >= 1 && y+1 < h
		row := y * w
		for x := 0; x < w; x++ {
			var sx, sy float64
			if interiorY && x >= 1 && x+1 < w {
				ki := 0
				for ky := 0; ky < 3; ky++ {
					base := (y+ky-1)*w + x - 1
					for kx := 0; kx < 3; kx++ {
						v := src.Pix[base+kx]
						sx += float64(xw[ki] * v)
						sy += float64(yw[ki] * v)
						ki++
					}
				}
			} else {
				ki := 0
				for ky := 0; ky < 3; ky++ {
					for kx := 0; kx < 3; kx++ {
						v := src.At(x+kx-1, y+ky-1)
						sx += float64(xw[ki] * v)
						sy += float64(yw[ki] * v)
						ki++
					}
				}
			}
			mag.Pix[row+x] = math.Hypot(sx, sy)
			a := math.Atan2(sy, sx)
			if a < 0 {
				a += math.Pi
			}
			if a >= math.Pi {
				a -= math.Pi
			}
			ori.Pix[row+x] = a
		}
	}
}

// GaussianKernel builds a normalized 2-D Gaussian kernel for the given
// standard deviation. The radius is ceil(3σ).
func GaussianKernel(sigma float64) Kernel {
	if sigma <= 0 {
		return Kernel{Size: 1, W: []float64{1}}
	}
	r := int(math.Ceil(3 * sigma))
	size := 2*r + 1
	w := make([]float64, size*size)
	var sum float64
	for y := -r; y <= r; y++ {
		for x := -r; x <= r; x++ {
			v := math.Exp(-float64(x*x+y*y) / (2 * sigma * sigma))
			w[(y+r)*size+(x+r)] = v
			sum += v
		}
	}
	for i := range w {
		w[i] /= sum
	}
	return Kernel{Size: size, W: w}
}

// gaussianKernel1D builds a normalized 1-D Gaussian of radius ceil(3σ).
func gaussianKernel1D(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	r := int(math.Ceil(3 * sigma))
	w := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		w[i+r] = v
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// kernelCacheMax bounds the σ → kernel caches. Feature pipelines cycle
// through a fixed handful of sigmas (SIFT uses six); a workload that
// sweeps arbitrary sigmas falls back to building kernels per call once
// the bound is reached rather than growing without limit.
const kernelCacheMax = 64

var (
	kernel1DMu    sync.RWMutex
	kernel1DCache = map[float64][]float64{}
	kernel2DMu    sync.RWMutex
	kernel2DCache = map[float64]Kernel{}
)

// gaussian1DCached returns the (immutable, shared) 1-D Gaussian for
// sigma, memoized across calls.
func gaussian1DCached(sigma float64) []float64 {
	kernel1DMu.RLock()
	k, ok := kernel1DCache[sigma]
	kernel1DMu.RUnlock()
	if ok {
		return k
	}
	k = gaussianKernel1D(sigma)
	kernel1DMu.Lock()
	if len(kernel1DCache) < kernelCacheMax {
		kernel1DCache[sigma] = k
	}
	kernel1DMu.Unlock()
	return k
}

// gaussian2DCached returns the (immutable, shared) 2-D Gaussian for
// sigma, memoized across calls.
func gaussian2DCached(sigma float64) Kernel {
	kernel2DMu.RLock()
	k, ok := kernel2DCache[sigma]
	kernel2DMu.RUnlock()
	if ok {
		return k
	}
	k = GaussianKernel(sigma)
	kernel2DMu.Lock()
	if len(kernel2DCache) < kernelCacheMax {
		kernel2DCache[sigma] = k
	}
	kernel2DMu.Unlock()
	return k
}

// Blur applies a Gaussian blur with the given sigma. The Gaussian is
// separable, so the blur runs as two 1-D passes — O(r) per pixel instead
// of O(r²).
func Blur(g *Gray, sigma float64) *Gray {
	return BlurInto(nil, g, sigma)
}

// BlurInto applies a separable Gaussian blur to src, writing into dst
// (reshaped; nil allocates). The two 1-D passes stage through a pooled
// scratch image, so dst MAY alias src (in-place blur). Returns dst.
func BlurInto(dst, src *Gray, sigma float64) *Gray {
	k := gaussian1DCached(sigma)
	dst = reshapeGray(dst, src.W, src.H)
	tmp := GetGray(src.W, src.H)
	work := src.W * src.H * len(k)
	// Horizontal pass: src → tmp.
	ParallelRows(src.H, work, func(y0, y1 int) {
		blurHBand(tmp, src, k, y0, y1)
	})
	// Vertical pass: tmp → dst.
	ParallelRows(src.H, work, func(y0, y1 int) {
		blurVBand(dst, tmp, k, y0, y1)
	})
	PutGray(tmp)
	return dst
}

// blurHBand computes rows [y0, y1) of the horizontal 1-D pass. It
// accumulates taps-outer (see blurVBand): a per-pixel tap loop is a
// serial chain of dependent FP adds and runs at add latency, while the
// taps-outer form makes consecutive pixels independent and runs at add
// throughput. Border replication is handled per tap by splitting the row
// into a left segment that clamps to srow[0], an interior streamed
// segment, and a right segment that clamps to srow[w-1] — the same
// values At would produce. The tap order per output pixel — ascending i
// onto an explicit zero — matches `sum := 0; sum += k[i]·v_i` exactly,
// so the restructuring is bit-identical.
func blurHBand(dst, src *Gray, k []float64, y0, y1 int) {
	w := src.W
	if w == 0 {
		return
	}
	r := len(k) / 2
	for y := y0; y < y1; y++ {
		row := y * w
		srow := src.Pix[row : row+w]
		drow := dst.Pix[row : row+w]
		for x := range drow {
			drow[x] = 0
		}
		for i, wt := range k {
			off := i - r
			lo := -off // output x below lo read the clamped srow[0]
			if lo < 0 {
				lo = 0
			} else if lo > w {
				lo = w
			}
			hi := w - off // output x at or above hi read the clamped srow[w-1]
			if hi > w {
				hi = w
			} else if hi < lo {
				hi = lo
			}
			left := float64(wt * srow[0])
			for j := 0; j < lo; j++ {
				drow[j] += left
			}
			if hi > lo { // empty when the tap falls entirely off one edge
				s := srow[lo+off : hi+off]
				d := drow[lo:hi]
				for j, v := range s {
					d[j] += float64(wt * v)
				}
			}
			right := float64(wt * srow[w-1])
			for j := hi; j < w; j++ {
				drow[j] += right
			}
		}
	}
}

// blurVBand computes rows [y0, y1) of the vertical 1-D pass. Instead of
// walking a strided column window per output pixel (one cache miss per
// tap at realistic widths), it accumulates taps-outer: each source row
// is streamed once and added into the output row. For a given output
// pixel the taps are still added in ascending i order onto an explicit
// zero, which is exactly the order (and exact zero seed) of
// `sum := 0; sum += k[i]·v_i`, so the result is bit-identical — including
// negative-zero propagation — while every access is sequential.
func blurVBand(dst, src *Gray, k []float64, y0, y1 int) {
	w, h := src.W, src.H
	r := len(k) / 2
	for y := y0; y < y1; y++ {
		drow := dst.Pix[y*w : y*w+w]
		for x := range drow {
			drow[x] = 0
		}
		for i, wt := range k {
			yy := clampInt(y+i-r, 0, h-1)
			srow := src.Pix[yy*w : yy*w+w]
			for x, v := range srow {
				drow[x] += float64(wt * v)
			}
		}
	}
}

// BlurRGB blurs each channel of an RGB image.
func BlurRGB(m *RGB, sigma float64) *RGB {
	return BlurRGBInto(nil, m, sigma)
}

// BlurRGBInto blurs each channel of src with a 2-D Gaussian, writing
// into dst (reshaped; nil allocates). dst must not alias src. Returns
// dst.
func BlurRGBInto(dst, src *RGB, sigma float64) *RGB {
	k := gaussian2DCached(sigma)
	dst = reshapeRGB(dst, src.W, src.H)
	checkNoAliasRGB(dst, src, "BlurRGBInto")
	ParallelRows(src.H, src.W*src.H*k.Size*k.Size*3, func(y0, y1 int) {
		blurRGBBand(dst, src, k, y0, y1)
	})
	return dst
}

// blurRGBBand computes rows [y0, y1) of the 2-D RGB blur.
func blurRGBBand(dst, src *RGB, k Kernel, y0, y1 int) {
	w, h := src.W, src.H
	r := k.Size / 2
	size := k.Size
	kw := k.W
	for y := y0; y < y1; y++ {
		interiorY := y >= r && y+r < h
		for x := 0; x < w; x++ {
			var sr, sg, sb float64
			if interiorY && x >= r && x+r < w {
				ki := 0
				for ky := 0; ky < size; ky++ {
					base := 3 * ((y+ky-r)*w + x - r)
					for kx := 0; kx < size; kx++ {
						wt := kw[ki]
						sr += float64(wt * src.Pix[base])
						sg += float64(wt * src.Pix[base+1])
						sb += float64(wt * src.Pix[base+2])
						base += 3
						ki++
					}
				}
			} else {
				ki := 0
				for ky := 0; ky < size; ky++ {
					for kx := 0; kx < size; kx++ {
						cr, cg, cb := src.At(x+kx-r, y+ky-r)
						wt := kw[ki]
						sr += float64(wt * cr)
						sg += float64(wt * cg)
						sb += float64(wt * cb)
						ki++
					}
				}
			}
			i := 3 * (y*w + x)
			dst.Pix[i], dst.Pix[i+1], dst.Pix[i+2] = sr, sg, sb
		}
	}
}

// Resize scales g to w×h with bilinear interpolation.
func Resize(g *Gray, w, h int) *Gray {
	return ResizeInto(nil, g, w, h)
}

// ResizeInto scales src to w×h with bilinear interpolation, writing
// into dst (reshaped; nil allocates). dst must not alias src (unless
// the output is empty). Returns dst.
func ResizeInto(dst, src *Gray, w, h int) *Gray {
	dst = reshapeGray(dst, w, h)
	if w == 0 || h == 0 || src.W == 0 || src.H == 0 {
		for i := range dst.Pix {
			dst.Pix[i] = 0
		}
		return dst
	}
	checkNoAlias(dst, src, "ResizeInto")
	sx := float64(src.W) / float64(w)
	sy := float64(src.H) / float64(h)
	ParallelRows(h, w*h*8, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				dst.Pix[y*w+x] = src.Bilinear(float64((float64(x)+0.5)*sx)-0.5, float64((float64(y)+0.5)*sy)-0.5)
			}
		}
	})
	return dst
}

// ResizeRGB scales m to w×h with bilinear interpolation.
func ResizeRGB(m *RGB, w, h int) *RGB {
	return ResizeRGBInto(nil, m, w, h)
}

// ResizeRGBInto scales src to w×h with bilinear interpolation, writing
// into dst (reshaped; nil allocates). dst must not alias src (unless
// the output is empty). Returns dst.
func ResizeRGBInto(dst, src *RGB, w, h int) *RGB {
	dst = reshapeRGB(dst, w, h)
	if w == 0 || h == 0 || src.W == 0 || src.H == 0 {
		for i := range dst.Pix {
			dst.Pix[i] = 0
		}
		return dst
	}
	checkNoAliasRGB(dst, src, "ResizeRGBInto")
	sx := float64(src.W) / float64(w)
	sy := float64(src.H) / float64(h)
	ParallelRows(h, w*h*24, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				fx := float64((float64(x)+0.5)*sx) - 0.5
				fy := float64((float64(y)+0.5)*sy) - 0.5
				x0, y0f := int(math.Floor(fx)), int(math.Floor(fy))
				dx, dy := fx-float64(x0), fy-float64(y0f)
				r00, g00, b00 := src.At(x0, y0f)
				r10, g10, b10 := src.At(x0+1, y0f)
				r01, g01, b01 := src.At(x0, y0f+1)
				r11, g11, b11 := src.At(x0+1, y0f+1)
				dst.Set(x, y,
					bilerp(r00, r10, r01, r11, dx, dy),
					bilerp(g00, g10, g01, g11, dx, dy),
					bilerp(b00, b10, b01, b11, dx, dy))
			}
		}
	})
	return dst
}

// Integral is a summed-area table: S[y][x] holds the sum of all samples
// with coordinates < (x, y). SURF-style box filters evaluate in O(1)
// against it.
type Integral struct {
	W, H int
	S    []float64 // (W+1)×(H+1)
}

// NewIntegral computes the summed-area table of g.
func NewIntegral(g *Gray) *Integral {
	it := &Integral{}
	it.From(g)
	return it
}

// From recomputes the summed-area table over g in place, reusing the
// existing buffer when its capacity suffices. The prefix-sum recurrence
// is inherently sequential in y, so this pass does not parallelize; it
// is a single O(W·H) sweep.
func (it *Integral) From(g *Gray) {
	w, h := g.W, g.H
	n := (w + 1) * (h + 1)
	if cap(it.S) < n {
		it.S = make([]float64, n)
	}
	it.W, it.H, it.S = w, h, it.S[:n]
	stride := w + 1
	// The recurrence only writes cells (x≥1, y≥1); the top row and left
	// column must be zero (a fresh make guarantees that, a reused buffer
	// does not).
	for x := 0; x <= w; x++ {
		it.S[x] = 0
	}
	for y := 1; y <= h; y++ {
		it.S[y*stride] = 0
	}
	for y := 1; y <= h; y++ {
		var row float64
		for x := 1; x <= w; x++ {
			row += g.Pix[(y-1)*w+(x-1)]
			it.S[y*stride+x] = it.S[(y-1)*stride+x] + row
		}
	}
}

// Sum returns the sum of samples in the rectangle [x0, x1)×[y0, y1),
// clamped to the image bounds.
func (it *Integral) Sum(x0, y0, x1, y1 int) float64 {
	x0 = clampInt(x0, 0, it.W)
	x1 = clampInt(x1, 0, it.W)
	y0 = clampInt(y0, 0, it.H)
	y1 = clampInt(y1, 0, it.H)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	stride := it.W + 1
	return it.S[y1*stride+x1] - it.S[y0*stride+x1] - it.S[y1*stride+x0] + it.S[y0*stride+x0]
}

// SumUnchecked is Sum without bounds clamping, for hot loops whose
// caller guarantees 0 ≤ x0 ≤ x1 ≤ W and 0 ≤ y0 ≤ y1 ≤ H (out-of-range
// coordinates panic on the slice access). Identical to Sum when the
// rectangle is in bounds and non-empty.
func (it *Integral) SumUnchecked(x0, y0, x1, y1 int) float64 {
	stride := it.W + 1
	return it.S[y1*stride+x1] - it.S[y0*stride+x1] - it.S[y1*stride+x0] + it.S[y0*stride+x0]
}

// AddNoise adds zero-mean Gaussian noise with the given sigma, clamping
// samples to [0, 1]. It is used by the synthetic datasets to model
// sensor noise.
func AddNoise(g *Gray, sigma float64, rng *rand.Rand) *Gray {
	out := g.Clone()
	for i := range out.Pix {
		out.Pix[i] = Clamp01(out.Pix[i] + float64(rng.NormFloat64()*sigma))
	}
	return out
}

// AddNoiseRGB adds per-channel Gaussian noise.
func AddNoiseRGB(m *RGB, sigma float64, rng *rand.Rand) *RGB {
	out := m.Clone()
	for i := range out.Pix {
		out.Pix[i] = Clamp01(out.Pix[i] + float64(rng.NormFloat64()*sigma))
	}
	return out
}

// AdjustBrightness adds delta to every sample, clamping to [0, 1]. It
// models the lighting variation of spatial correlation (§2.2: "different
// lighting conditions ... different color bias").
func AdjustBrightness(g *Gray, delta float64) *Gray {
	out := g.Clone()
	for i := range out.Pix {
		out.Pix[i] = Clamp01(out.Pix[i] + delta)
	}
	return out
}

// AdjustBrightnessRGB adds delta to every channel.
func AdjustBrightnessRGB(m *RGB, delta float64) *RGB {
	out := m.Clone()
	for i := range out.Pix {
		out.Pix[i] = Clamp01(out.Pix[i] + delta)
	}
	return out
}
