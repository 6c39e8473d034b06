package feature

import (
	"math"

	"repro/internal/imaging"
	"repro/internal/vec"
)

// ColorHist is the color-histogram feature (paper citation [22]): 256
// bins per RGB channel, L1-normalized, 768 dimensions — "a 768-bit
// vector to represent the color histogram" (§3.2). It is robust to the
// small geometric distortions between correlated frames (Figure 2).
type ColorHist struct{}

// Name implements Extractor.
func (ColorHist) Name() string { return "colorhist" }

// Usage implements Extractor.
func (ColorHist) Usage() string { return "Similarity" }

// Extract implements Extractor.
func (ColorHist) Extract(img *imaging.RGB) Result {
	key := make(vec.Vector, 768)
	for i := 0; i+2 < len(img.Pix); i += 3 {
		key[bin(img.Pix[i])]++
		key[256+bin(img.Pix[i+1])]++
		key[512+bin(img.Pix[i+2])]++
	}
	normalizeL1InPlace(key)
	return Result{Key: key, RawBytes: key.SizeBytes()}
}

func bin(v float64) int {
	i := int(v * 256)
	if i > 255 {
		i = 255
	}
	if i < 0 {
		i = 0
	}
	return i
}

// HOG is a histogram-of-oriented-gradients feature (paper citation [45]):
// the image is divided into a fixed 10×10 grid of cells; each cell
// carries a 9-component orientation descriptor, and the concatenation is
// L2-normalized (900 dimensions). The per-cell descriptor stores the
// orientation distribution in the Fourier domain — total magnitude plus
// magnitude-weighted cos/sin of 2kθ for k = 1..4 — which encodes the
// same information as a 9-bin histogram but varies smoothly with the
// gradient field: sensor-noise orientations are isotropic and cancel,
// where hard binning would churn bin boundaries frame to frame.
type HOG struct{}

// HOG layout constants.
const (
	hogCells = 10
	hogBins  = 9
	// hogMagnitudeFloor drops gradients weaker than this: after the
	// Gaussian pre-smoothing, anything below it is residual sensor noise.
	hogMagnitudeFloor = 0.01
)

// Name implements Extractor.
func (HOG) Name() string { return "hog" }

// Usage implements Extractor.
func (HOG) Usage() string { return "Detection" }

// Extract implements Extractor.
func (HOG) Extract(img *imaging.RGB) Result {
	// Gaussian pre-smoothing suppresses sensor noise before gradients,
	// the standard HOG preprocessing; without it per-frame noise
	// dominates the cell histograms. The grayscale conversion, blur
	// (in place: BlurInto allows dst == src), and the fused
	// magnitude+orientation pass all run in pooled buffers.
	g := img.GrayInto(imaging.GetGray(img.W, img.H))
	g = imaging.BlurInto(g, g, 2.0)
	mag := imaging.GetGray(g.W, g.H)
	ori := imaging.GetGray(g.W, g.H)
	imaging.GradientMagnitudeOrientationInto(mag, ori, g)
	key := make(vec.Vector, hogCells*hogCells*hogBins)
	if g.W == 0 || g.H == 0 {
		imaging.PutGray(g)
		imaging.PutGray(mag)
		imaging.PutGray(ori)
		return Result{Key: key}
	}
	for y := 0; y < g.H; y++ {
		cy := y * hogCells / g.H
		row := y * g.W
		for x := 0; x < g.W; x++ {
			m := mag.Pix[row+x]
			if m < hogMagnitudeFloor {
				continue // residual noise gradients
			}
			cx := x * hogCells / g.W
			theta := ori.Pix[row+x]
			base := (cy*hogCells + cx) * hogBins
			key[base] += m
			for k := 1; k <= 4; k++ {
				key[base+2*k-1] += float64(m * math.Cos(2*float64(k)*theta))
				key[base+2*k] += float64(m * math.Sin(2*float64(k)*theta))
			}
		}
	}
	imaging.PutGray(g)
	imaging.PutGray(mag)
	imaging.PutGray(ori)
	normalizeInPlace(key)
	return Result{Key: key, RawBytes: key.SizeBytes()}
}

// Downsample resizes the image to a small fixed raster and vectorizes
// it, the "Downsamp" row of Table 1: "down-sampling the raw image to
// fewer dimensions, which is then vectorized to be fed into deep neural
// networks" (§5.2). The target is 16×16 RGB — 768 components, matching
// Table 1's 1 KB payload (DNN inputs are color rasters).
type Downsample struct{}

// DownsampleSide is the side length of the down-sampled raster.
const DownsampleSide = 16

// DownsampleDims is the key dimensionality (three channels per pixel).
const DownsampleDims = 3 * DownsampleSide * DownsampleSide

// Name implements Extractor.
func (Downsample) Name() string { return "downsamp" }

// Usage implements Extractor.
func (Downsample) Usage() string { return "Deep learning" }

// Extract implements Extractor.
func (Downsample) Extract(img *imaging.RGB) Result {
	small := imaging.ResizeRGBInto(imaging.GetRGB(DownsampleSide, DownsampleSide), img, DownsampleSide, DownsampleSide)
	key := make(vec.Vector, len(small.Pix))
	copy(key, small.Pix)
	n := len(small.Pix)
	imaging.PutRGB(small)
	return Result{Key: key, RawBytes: n} // 1 byte/channel payload
}
