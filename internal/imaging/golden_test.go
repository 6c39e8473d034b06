package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Golden-equivalence tests: the tiled, pooled, fast-path kernels must
// produce bit-identical output to the straightforward sequential
// implementations they replaced. The reference implementations below
// are verbatim ports of the original per-pixel loops (border
// replication via At everywhere, no interior fast paths, no
// parallelism); every comparison is on Float64bits, not tolerances.
//
// Each case runs three ways against the reference: the public API on a
// cold machine (whatever path the current GOMAXPROCS picks), the
// ...Into variant writing into a NaN-poisoned recycled destination
// (catches any pixel the kernel forgets to overwrite), and the forced
// row-band parallel path with more workers than CPUs.

// forceParallel drops the sequential-fallback threshold to zero and
// spins up extra pool workers so even a 3×3 image takes the banded
// path, restoring the threshold when the test ends. (Workers are never
// stopped; leaving them idle is the pool's normal state.)
func forceParallel(t *testing.T) {
	t.Helper()
	old := parallelMinWork
	parallelMinWork = 1
	ensureWorkers(8)
	t.Cleanup(func() { parallelMinWork = old })
}

// goldenSizes covers the shapes that break naive tiling: minimal
// images, single-row and single-column images, odd dimensions, and
// sizes around the band-split boundaries.
var goldenSizes = [][2]int{
	{1, 1}, {1, 7}, {7, 1}, {1, 64}, {64, 1}, {2, 2}, {3, 3}, {4, 5},
	{7, 5}, {9, 9}, {16, 16}, {17, 31}, {33, 64}, {61, 43},
}

// testGray builds a deterministic test image, salted with exact zeros,
// ones, and negative zeros so the zero-sign behaviour of the
// restructured accumulations is exercised too.
func testGray(w, h int, seed int64) *Gray {
	g := NewGray(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Pix {
		switch rng.Intn(16) {
		case 0:
			g.Pix[i] = 0
		case 1:
			g.Pix[i] = 1
		case 2:
			g.Pix[i] = math.Copysign(0, -1)
		default:
			g.Pix[i] = rng.Float64()
		}
	}
	return g
}

func testRGB(w, h int, seed int64) *RGB {
	m := NewRGB(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Pix {
		m.Pix[i] = rng.Float64()
	}
	return m
}

// poisonGray returns a pooled w×h destination with every sample set to
// NaN: any output pixel the kernel fails to overwrite poisons the
// comparison.
func poisonGray(w, h int) *Gray {
	d := GetGray(w, h)
	for i := range d.Pix {
		d.Pix[i] = math.NaN()
	}
	return d
}

func poisonRGB(w, h int) *RGB {
	d := GetRGB(w, h)
	for i := range d.Pix {
		d.Pix[i] = math.NaN()
	}
	return d
}

func requireBitsEqual(t *testing.T, label string, want, got *Gray) {
	t.Helper()
	if want.W != got.W || want.H != got.H {
		t.Fatalf("%s: dimensions %dx%d != %dx%d", label, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float64bits(want.Pix[i]) != math.Float64bits(got.Pix[i]) {
			t.Fatalf("%s: pixel %d (x=%d y=%d): got %v (bits %#x), want %v (bits %#x)",
				label, i, i%want.W, i/want.W, got.Pix[i], math.Float64bits(got.Pix[i]),
				want.Pix[i], math.Float64bits(want.Pix[i]))
		}
	}
}

func requireBitsEqualRGB(t *testing.T, label string, want, got *RGB) {
	t.Helper()
	if want.W != got.W || want.H != got.H {
		t.Fatalf("%s: dimensions %dx%d != %dx%d", label, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float64bits(want.Pix[i]) != math.Float64bits(got.Pix[i]) {
			t.Fatalf("%s: component %d: got %v, want %v", label, i, got.Pix[i], want.Pix[i])
		}
	}
}

// --- reference implementations (original sequential code) ---

func refConvolve(g *Gray, k Kernel) *Gray {
	out := NewGray(g.W, g.H)
	r := k.Size / 2
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var sum float64
			for ky := 0; ky < k.Size; ky++ {
				for kx := 0; kx < k.Size; kx++ {
					sum += float64(k.W[ky*k.Size+kx] * g.At(x+kx-r, y+ky-r))
				}
			}
			out.Pix[y*g.W+x] = sum
		}
	}
	return out
}

func refBlur(g *Gray, sigma float64) *Gray {
	k := gaussianKernel1D(sigma)
	r := len(k) / 2
	tmp := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var sum float64
			for i, w := range k {
				sum += float64(w * g.At(x+i-r, y))
			}
			tmp.Pix[y*g.W+x] = sum
		}
	}
	out := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var sum float64
			for i, w := range k {
				sum += float64(w * tmp.At(x, y+i-r))
			}
			out.Pix[y*g.W+x] = sum
		}
	}
	return out
}

func refBlurRGB(m *RGB, sigma float64) *RGB {
	k := GaussianKernel(sigma)
	out := NewRGB(m.W, m.H)
	r := k.Size / 2
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			var sr, sg, sb float64
			for ky := 0; ky < k.Size; ky++ {
				for kx := 0; kx < k.Size; kx++ {
					cr, cg, cb := m.At(x+kx-r, y+ky-r)
					w := k.W[ky*k.Size+kx]
					sr += float64(w * cr)
					sg += float64(w * cg)
					sb += float64(w * cb)
				}
			}
			out.Set(x, y, sr, sg, sb)
		}
	}
	return out
}

func refResize(g *Gray, w, h int) *Gray {
	out := NewGray(w, h)
	if w == 0 || h == 0 || g.W == 0 || g.H == 0 {
		return out
	}
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = g.Bilinear(float64((float64(x)+0.5)*sx)-0.5, float64((float64(y)+0.5)*sy)-0.5)
		}
	}
	return out
}

func refMagOri(g *Gray) (mag, ori *Gray) {
	gx := refConvolve(g, SobelX)
	gy := refConvolve(g, SobelY)
	mag = NewGray(g.W, g.H)
	ori = NewGray(g.W, g.H)
	for i := range mag.Pix {
		dx, dy := gx.Pix[i], gy.Pix[i]
		mag.Pix[i] = math.Hypot(dx, dy)
		a := math.Atan2(dy, dx)
		if a < 0 {
			a += math.Pi
		}
		if a >= math.Pi {
			a -= math.Pi
		}
		ori.Pix[i] = a
	}
	return mag, ori
}

func refWarp(g *Gray, m Mat3, fill float64) *Gray {
	inv, err := m.Inverse()
	if err != nil {
		panic(err)
	}
	out := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			sx, sy := inv.Apply(float64(x), float64(y))
			if sx < -0.5 || sy < -0.5 || sx > float64(g.W)-0.5 || sy > float64(g.H)-0.5 ||
				math.IsInf(sx, 0) || math.IsInf(sy, 0) {
				out.Pix[y*g.W+x] = fill
				continue
			}
			out.Pix[y*g.W+x] = g.Bilinear(sx, sy)
		}
	}
	return out
}

func refGray(m *RGB) *Gray {
	out := NewGray(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r, g, b := m.At(x, y)
			out.Set(x, y, float64(0.299*r)+float64(0.587*g)+float64(0.114*b))
		}
	}
	return out
}

// --- golden tests ---

// TestGoldenConvolve includes a kernel wider than the smallest images
// (GaussianKernel(1.0) is 7×7; several goldenSizes are below 7 on a
// side).
func TestGoldenConvolve(t *testing.T) {
	kernels := map[string]Kernel{
		"sobelx":   SobelX,
		"gauss1.0": GaussianKernel(1.0), // 7×7: wider than the small images
	}
	for _, sz := range goldenSizes {
		src := testGray(sz[0], sz[1], int64(sz[0]*1000+sz[1]))
		for name, k := range kernels {
			want := refConvolve(src, k)
			requireBitsEqual(t, fmt.Sprintf("Convolve %s %dx%d", name, sz[0], sz[1]),
				want, Convolve(src, k))
			dst := poisonGray(sz[0], sz[1])
			requireBitsEqual(t, fmt.Sprintf("ConvolveInto %s %dx%d", name, sz[0], sz[1]),
				want, ConvolveInto(dst, src, k))
			PutGray(dst)
		}
	}
	forceParallel(t)
	for _, sz := range goldenSizes {
		src := testGray(sz[0], sz[1], int64(sz[0]*1000+sz[1]))
		for name, k := range kernels {
			want := refConvolve(src, k)
			dst := poisonGray(sz[0], sz[1])
			requireBitsEqual(t, fmt.Sprintf("parallel ConvolveInto %s %dx%d", name, sz[0], sz[1]),
				want, ConvolveInto(dst, src, k))
			PutGray(dst)
		}
	}
}

// TestGoldenBlur covers sigma 4.0 (49-tap window), far wider than the
// 1×N, N×1 and tiny images in goldenSizes, plus the in-place dst==src
// contract.
func TestGoldenBlur(t *testing.T) {
	sigmas := []float64{0.8, 1.0, 2.1, 4.0}
	check := func(label string) {
		for _, sz := range goldenSizes {
			src := testGray(sz[0], sz[1], int64(sz[0]*31+sz[1]))
			for _, sg := range sigmas {
				want := refBlur(src, sg)
				requireBitsEqual(t, fmt.Sprintf("%s Blur σ=%v %dx%d", label, sg, sz[0], sz[1]),
					want, Blur(src, sg))
				dst := poisonGray(sz[0], sz[1])
				requireBitsEqual(t, fmt.Sprintf("%s BlurInto σ=%v %dx%d", label, sg, sz[0], sz[1]),
					want, BlurInto(dst, src, sg))
				PutGray(dst)
				// In-place: dst aliases src.
				inPlace := src.Clone()
				requireBitsEqual(t, fmt.Sprintf("%s BlurInto in-place σ=%v %dx%d", label, sg, sz[0], sz[1]),
					want, BlurInto(inPlace, inPlace, sg))
			}
		}
	}
	check("sequential")
	forceParallel(t)
	check("parallel")
}

func TestGoldenBlurRGB(t *testing.T) {
	check := func(label string) {
		for _, sz := range goldenSizes {
			src := testRGB(sz[0], sz[1], int64(sz[0]*7+sz[1]))
			for _, sg := range []float64{1.0, 2.5} {
				want := refBlurRGB(src, sg)
				requireBitsEqualRGB(t, fmt.Sprintf("%s BlurRGB σ=%v %dx%d", label, sg, sz[0], sz[1]),
					want, BlurRGB(src, sg))
				dst := poisonRGB(sz[0], sz[1])
				requireBitsEqualRGB(t, fmt.Sprintf("%s BlurRGBInto σ=%v %dx%d", label, sg, sz[0], sz[1]),
					want, BlurRGBInto(dst, src, sg))
				PutRGB(dst)
			}
		}
	}
	check("sequential")
	forceParallel(t)
	check("parallel")
}

func TestGoldenResize(t *testing.T) {
	targets := [][2]int{{1, 1}, {3, 7}, {8, 8}, {16, 5}, {40, 40}}
	check := func(label string) {
		for _, sz := range goldenSizes {
			src := testGray(sz[0], sz[1], int64(sz[0]*13+sz[1]))
			for _, tg := range targets {
				want := refResize(src, tg[0], tg[1])
				requireBitsEqual(t, fmt.Sprintf("%s Resize %dx%d->%dx%d", label, sz[0], sz[1], tg[0], tg[1]),
					want, Resize(src, tg[0], tg[1]))
				dst := poisonGray(tg[0], tg[1])
				requireBitsEqual(t, fmt.Sprintf("%s ResizeInto %dx%d->%dx%d", label, sz[0], sz[1], tg[0], tg[1]),
					want, ResizeInto(dst, src, tg[0], tg[1]))
				PutGray(dst)
			}
		}
	}
	check("sequential")
	forceParallel(t)
	check("parallel")
}

func TestGoldenGradientsAndMagOri(t *testing.T) {
	check := func(label string) {
		for _, sz := range goldenSizes {
			src := testGray(sz[0], sz[1], int64(sz[0]*17+sz[1]))
			wantGx := refConvolve(src, SobelX)
			wantGy := refConvolve(src, SobelY)
			gx, gy := Gradients(src)
			requireBitsEqual(t, fmt.Sprintf("%s Gradients gx %dx%d", label, sz[0], sz[1]), wantGx, gx)
			requireBitsEqual(t, fmt.Sprintf("%s Gradients gy %dx%d", label, sz[0], sz[1]), wantGy, gy)
			dgx, dgy := poisonGray(sz[0], sz[1]), poisonGray(sz[0], sz[1])
			gx, gy = GradientsInto(dgx, dgy, src)
			requireBitsEqual(t, fmt.Sprintf("%s GradientsInto gx %dx%d", label, sz[0], sz[1]), wantGx, gx)
			requireBitsEqual(t, fmt.Sprintf("%s GradientsInto gy %dx%d", label, sz[0], sz[1]), wantGy, gy)
			PutGray(dgx)
			PutGray(dgy)

			wantMag, wantOri := refMagOri(src)
			mag, ori := GradientMagnitudeOrientation(src)
			requireBitsEqual(t, fmt.Sprintf("%s MagOri mag %dx%d", label, sz[0], sz[1]), wantMag, mag)
			requireBitsEqual(t, fmt.Sprintf("%s MagOri ori %dx%d", label, sz[0], sz[1]), wantOri, ori)
			dm, do := poisonGray(sz[0], sz[1]), poisonGray(sz[0], sz[1])
			mag, ori = GradientMagnitudeOrientationInto(dm, do, src)
			requireBitsEqual(t, fmt.Sprintf("%s MagOriInto mag %dx%d", label, sz[0], sz[1]), wantMag, mag)
			requireBitsEqual(t, fmt.Sprintf("%s MagOriInto ori %dx%d", label, sz[0], sz[1]), wantOri, ori)
			PutGray(dm)
			PutGray(do)
		}
	}
	check("sequential")
	forceParallel(t)
	check("parallel")
}

func TestGoldenWarp(t *testing.T) {
	mats := []Mat3{
		Translation(1.5, -2.25),
		RotationAbout(0.3, 8, 8),
		ScalingAbout(1.3, 0.7, 4, 4),
	}
	check := func(label string) {
		for _, sz := range goldenSizes {
			src := testGray(sz[0], sz[1], int64(sz[0]*23+sz[1]))
			for mi, m := range mats {
				want := refWarp(src, m, 0.25)
				got, err := Warp(src, m, 0.25)
				if err != nil {
					t.Fatalf("%s Warp: %v", label, err)
				}
				requireBitsEqual(t, fmt.Sprintf("%s Warp m%d %dx%d", label, mi, sz[0], sz[1]), want, got)
				dst := poisonGray(sz[0], sz[1])
				got, err = WarpInto(dst, src, m, 0.25)
				if err != nil {
					t.Fatalf("%s WarpInto: %v", label, err)
				}
				requireBitsEqual(t, fmt.Sprintf("%s WarpInto m%d %dx%d", label, mi, sz[0], sz[1]), want, got)
				PutGray(dst)
			}
		}
	}
	check("sequential")
	forceParallel(t)
	check("parallel")
}

func TestGoldenGrayConversion(t *testing.T) {
	check := func(label string) {
		for _, sz := range goldenSizes {
			src := testRGB(sz[0], sz[1], int64(sz[0]*3+sz[1]))
			want := refGray(src)
			requireBitsEqual(t, fmt.Sprintf("%s Gray %dx%d", label, sz[0], sz[1]), want, src.Gray())
			dst := poisonGray(sz[0], sz[1])
			requireBitsEqual(t, fmt.Sprintf("%s GrayInto %dx%d", label, sz[0], sz[1]), want, src.GrayInto(dst))
			PutGray(dst)
		}
	}
	check("sequential")
	forceParallel(t)
	check("parallel")
}

// TestGoldenIntegralReuse proves Integral.From on a dirty recycled
// buffer matches a freshly built table (the compute loop only writes
// cells (x≥1, y≥1); the zero row and column must be re-zeroed
// explicitly), and that SumUnchecked agrees with Sum on in-bounds
// rectangles.
func TestGoldenIntegralReuse(t *testing.T) {
	it := &Integral{}
	for _, sz := range goldenSizes {
		src := testGray(sz[0], sz[1], int64(sz[0]*41+sz[1]))
		// Poison the recycled buffer beyond its next length.
		for i := range it.S {
			it.S[i] = math.NaN()
		}
		it.From(src)
		fresh := NewIntegral(src)
		if len(it.S) != len(fresh.S) {
			t.Fatalf("%dx%d: reused table has %d cells, fresh %d", sz[0], sz[1], len(it.S), len(fresh.S))
		}
		for i := range fresh.S {
			if math.Float64bits(it.S[i]) != math.Float64bits(fresh.S[i]) {
				t.Fatalf("%dx%d: integral cell %d: reused %v, fresh %v", sz[0], sz[1], i, it.S[i], fresh.S[i])
			}
		}
		rng := rand.New(rand.NewSource(99))
		for n := 0; n < 50; n++ {
			x0, x1 := rng.Intn(sz[0]+1), rng.Intn(sz[0]+1)
			y0, y1 := rng.Intn(sz[1]+1), rng.Intn(sz[1]+1)
			if x1 < x0 {
				x0, x1 = x1, x0
			}
			if y1 < y0 {
				y0, y1 = y1, y0
			}
			s, u := fresh.Sum(x0, y0, x1, y1), fresh.SumUnchecked(x0, y0, x1, y1)
			if x1 > x0 && y1 > y0 && math.Float64bits(s) != math.Float64bits(u) {
				t.Fatalf("%dx%d: Sum(%d,%d,%d,%d)=%v != SumUnchecked=%v", sz[0], sz[1], x0, y0, x1, y1, s, u)
			}
		}
	}
}
