package feature

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imaging"
	"repro/internal/vec"
)

// Golden-equivalence tests for the fused/in-place descriptor helpers.
// The references below are verbatim ports of the original allocating
// implementations (every sample through the clamping At/Sum accessors,
// fresh vectors everywhere); the optimized ...Into variants must match
// them on Float64bits at every probe point — in particular across the
// interior/border seam where the fast paths switch from unchecked
// direct indexing back to clamped access.

func refOrientationHistogram(mag, ori *imaging.Gray, x, y, radius, nbins int) vec.Vector {
	h := make(vec.Vector, nbins)
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			b := int(ori.At(x+dx, y+dy) / math.Pi * float64(nbins))
			if b >= nbins {
				b = nbins - 1
			}
			h[b] += mag.At(x+dx, y+dy)
		}
	}
	return h
}

func refHessianResponse(it *imaging.Integral, w, h, l int) *imaging.Gray {
	out := imaging.NewGray(w, h)
	area := float64(l * l)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dxx := (2*it.Sum(x-l/2, y-l/2, x+l/2+1, y+l/2+1) -
				it.Sum(x-l/2-l, y-l/2, x-l/2, y+l/2+1) -
				it.Sum(x+l/2+1, y-l/2, x+l/2+1+l, y+l/2+1)) / area
			dyy := (2*it.Sum(x-l/2, y-l/2, x+l/2+1, y+l/2+1) -
				it.Sum(x-l/2, y-l/2-l, x+l/2+1, y-l/2) -
				it.Sum(x-l/2, y+l/2+1, x+l/2+1, y+l/2+1+l)) / area
			dxy := (it.Sum(x-l, y-l, x, y) + it.Sum(x+1, y+1, x+1+l, y+1+l) -
				it.Sum(x+1, y-l, x+1+l, y) - it.Sum(x-l, y+1, x, y+1+l)) / area
			v := float64(dxx*dyy) - float64(0.81*dxy*dxy)
			if v < 0 {
				v = 0
			}
			out.Pix[y*w+x] = v
		}
	}
	return out
}

func refSurfDescriptor(it *imaging.Integral, cx, cy int) vec.Vector {
	d := make(vec.Vector, surfDescriptorDims)
	idx := 0
	for sy := 0; sy < 4; sy++ {
		for sx := 0; sx < 4; sx++ {
			var sdx, sadx, sdy, sady float64
			for py := 0; py < 4; py++ {
				for px := 0; px < 4; px++ {
					x := cx - 8 + sx*4 + px
					y := cy - 8 + sy*4 + py
					dx := it.Sum(x, y-1, x+2, y+1) - it.Sum(x-2, y-1, x, y+1)
					dy := it.Sum(x-1, y, x+1, y+2) - it.Sum(x-1, y-2, x+1, y)
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
	return d.Normalize()
}

func refSiftDescriptor(mag, ori *imaging.Gray, cx, cy int) vec.Vector {
	d := make(vec.Vector, siftDescriptorDims)
	for sy := 0; sy < 4; sy++ {
		for sx := 0; sx < 4; sx++ {
			h := refOrientationHistogram(mag, ori, cx-8+sx*4+2, cy-8+sy*4+2, 2, 8)
			copy(d[(sy*4+sx)*8:], h)
		}
	}
	return d.Normalize()
}

func vecBitsEqual(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: component %d: got %v (bits %#x), want %v (bits %#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func noisyGray(w, h int, seed int64) *imaging.Gray {
	g := imaging.NewGray(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Pix {
		g.Pix[i] = rng.Float64()
	}
	return g
}

// probeCenters yields every center near the four edges plus a grid of
// interior points, so both sides of each unchecked-fast-path guard are
// compared.
func probeCenters(w, h, margin int) [][2]int {
	var pts [][2]int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			nearEdge := x < margin || y < margin || x >= w-margin || y >= h-margin
			if nearEdge || (x%7 == 3 && y%5 == 2) {
				pts = append(pts, [2]int{x, y})
			}
		}
	}
	return pts
}

func TestGoldenOrientationHistogram(t *testing.T) {
	const w, h = 24, 18
	src := noisyGray(w, h, 1)
	mag, ori := imaging.GradientMagnitudeOrientation(src)
	for _, radius := range []int{2, 4} {
		for _, c := range probeCenters(w, h, radius+1) {
			want := refOrientationHistogram(mag, ori, c[0], c[1], radius, 8)
			got := make([]float64, 8)
			// Poison: Into must fully reset the histogram.
			for i := range got {
				got[i] = math.NaN()
			}
			orientationHistogramInto(got, mag, ori, c[0], c[1], radius)
			vecBitsEqual(t, fmt.Sprintf("orientationHistogram r=%d center=(%d,%d)", radius, c[0], c[1]), want, got)
		}
	}
}

func TestGoldenHessianResponse(t *testing.T) {
	for _, sz := range [][2]int{{8, 6}, {24, 18}, {40, 30}} {
		src := noisyGray(sz[0], sz[1], 2)
		it := imaging.NewIntegral(src)
		for _, l := range []int{3, 5, 7} {
			want := refHessianResponse(it, sz[0], sz[1], l)
			got := imaging.NewGray(sz[0], sz[1])
			for i := range got.Pix {
				got.Pix[i] = math.NaN()
			}
			hessianResponseInto(got, it, sz[0], sz[1], l)
			vecBitsEqual(t, fmt.Sprintf("hessianResponse %dx%d l=%d", sz[0], sz[1], l), want.Pix, got.Pix)
		}
	}
}

func TestGoldenSurfDescriptor(t *testing.T) {
	const w, h = 32, 26
	src := noisyGray(w, h, 3)
	it := imaging.NewIntegral(src)
	// Margin 11 straddles the cx>=10 && cx+9<=w unchecked-path guard.
	for _, c := range probeCenters(w, h, 11) {
		want := refSurfDescriptor(it, c[0], c[1])
		got := make([]float64, surfDescriptorDims)
		for i := range got {
			got[i] = math.NaN()
		}
		surfDescriptorInto(got, it, c[0], c[1])
		vecBitsEqual(t, fmt.Sprintf("surfDescriptor center=(%d,%d)", c[0], c[1]), want, got)
	}
}

func TestGoldenSiftDescriptor(t *testing.T) {
	const w, h = 32, 26
	src := noisyGray(w, h, 4)
	mag, ori := imaging.GradientMagnitudeOrientation(src)
	for _, c := range probeCenters(w, h, 9) {
		want := refSiftDescriptor(mag, ori, c[0], c[1])
		got := make([]float64, siftDescriptorDims)
		for i := range got {
			got[i] = math.NaN()
		}
		siftDescriptorInto(got, mag, ori, c[0], c[1])
		vecBitsEqual(t, fmt.Sprintf("siftDescriptor center=(%d,%d)", c[0], c[1]), want, got)
	}
}

// TestGoldenNormalizeInPlace pins the in-place normalizations to the
// allocating vec originals, including the zero-vector no-op case.
func TestGoldenNormalizeInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		v := make(vec.Vector, 1+rng.Intn(64))
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if trial%10 == 0 {
			for i := range v {
				v[i] = 0
			}
		}
		want := v.Normalize()
		got := append(vec.Vector(nil), v...)
		normalizeInPlace(got)
		vecBitsEqual(t, fmt.Sprintf("normalizeInPlace trial %d", trial), want, got)

		wantL1 := v.NormalizeL1()
		gotL1 := append(vec.Vector(nil), v...)
		normalizeL1InPlace(gotL1)
		vecBitsEqual(t, fmt.Sprintf("normalizeL1InPlace trial %d", trial), wantL1, gotL1)
	}
}
