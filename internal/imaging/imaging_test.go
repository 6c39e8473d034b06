package imaging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGrayAtSetClamp(t *testing.T) {
	g := NewGray(4, 3)
	g.Set(1, 1, 0.5)
	if got := g.At(1, 1); got != 0.5 {
		t.Errorf("At = %v", got)
	}
	// Border replication.
	g.Set(0, 0, 0.9)
	if got := g.At(-5, -5); got != 0.9 {
		t.Errorf("clamped At = %v, want 0.9", got)
	}
	g.Set(3, 2, 0.7)
	if got := g.At(100, 100); got != 0.7 {
		t.Errorf("clamped At = %v, want 0.7", got)
	}
	// Out-of-bounds Set is ignored.
	g.Set(-1, 0, 1)
	g.Set(0, 99, 1)
	if g.At(0, 0) != 0.9 {
		t.Error("out-of-bounds Set modified image")
	}
}

func TestGrayBilinear(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(0, 0, 0)
	g.Set(1, 0, 1)
	g.Set(0, 1, 0)
	g.Set(1, 1, 1)
	if got := g.Bilinear(0.5, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Bilinear(0.5,0.5) = %v, want 0.5", got)
	}
	if got := g.Bilinear(0, 0); got != 0 {
		t.Errorf("Bilinear at integer = %v", got)
	}
}

func TestRGBGrayConversion(t *testing.T) {
	m := NewRGB(1, 1)
	m.Set(0, 0, 1, 1, 1)
	g := m.Gray()
	if math.Abs(g.At(0, 0)-1) > 1e-9 {
		t.Errorf("white converts to %v", g.At(0, 0))
	}
	m.Set(0, 0, 1, 0, 0)
	if got := m.Gray().At(0, 0); math.Abs(got-0.299) > 1e-9 {
		t.Errorf("red luma = %v, want 0.299", got)
	}
}

func TestConvolveIdentity(t *testing.T) {
	g := NewGray(5, 5)
	rng := rand.New(rand.NewSource(1))
	for i := range g.Pix {
		g.Pix[i] = rng.Float64()
	}
	id := Kernel{Size: 1, W: []float64{1}}
	out := Convolve(g, id)
	for i := range g.Pix {
		if out.Pix[i] != g.Pix[i] {
			t.Fatal("identity kernel changed image")
		}
	}
}

func TestSobelOnVerticalEdge(t *testing.T) {
	g := NewGray(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			g.Set(x, y, 1)
		}
	}
	gx, gy := Gradients(g)
	// Strong horizontal derivative at the edge, none vertically.
	if math.Abs(gx.At(4, 4)) < 1 {
		t.Errorf("gx at edge = %v, want large", gx.At(4, 4))
	}
	if math.Abs(gy.At(4, 4)) > 1e-9 {
		t.Errorf("gy at edge = %v, want 0", gy.At(4, 4))
	}
	mag, ori := GradientMagnitudeOrientation(g)
	if mag.At(4, 4) < 1 {
		t.Errorf("magnitude = %v", mag.At(4, 4))
	}
	if o := ori.At(4, 4); math.Abs(o) > 1e-9 && math.Abs(o-math.Pi) > 1e-9 {
		t.Errorf("orientation = %v, want 0 (horizontal gradient)", o)
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2} {
		k := GaussianKernel(sigma)
		if k.Size%2 != 1 {
			t.Errorf("sigma %v: even kernel size %d", sigma, k.Size)
		}
		var sum float64
		for _, w := range k.W {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("sigma %v: kernel sums to %v", sigma, sum)
		}
	}
	if k := GaussianKernel(0); k.Size != 1 || k.W[0] != 1 {
		t.Error("sigma 0 is not identity")
	}
}

func TestBlurPreservesMean(t *testing.T) {
	g := NewGray(16, 16)
	rng := rand.New(rand.NewSource(2))
	for i := range g.Pix {
		g.Pix[i] = rng.Float64()
	}
	b := Blur(g, 1.0)
	// Border replication shifts the mean slightly; allow 5% slack.
	if math.Abs(b.Mean()-g.Mean()) > 0.05 {
		t.Errorf("blur changed mean %v -> %v", g.Mean(), b.Mean())
	}
	// Blur reduces variance.
	varOf := func(im *Gray) float64 {
		m := im.Mean()
		var s float64
		for _, v := range im.Pix {
			s += float64((v - m) * (v - m))
		}
		return s / float64(len(im.Pix))
	}
	if varOf(b) >= varOf(g) {
		t.Error("blur did not reduce variance")
	}
}

func TestResize(t *testing.T) {
	g := NewGray(4, 4)
	for i := range g.Pix {
		g.Pix[i] = 0.25
	}
	out := Resize(g, 8, 2)
	if out.W != 8 || out.H != 2 {
		t.Fatalf("Resize dims = %dx%d", out.W, out.H)
	}
	for _, v := range out.Pix {
		if math.Abs(v-0.25) > 1e-9 {
			t.Fatalf("constant image resized to %v", v)
		}
	}
	if z := Resize(g, 0, 0); z.W != 0 || z.H != 0 {
		t.Error("Resize to zero failed")
	}
}

func TestIntegralSums(t *testing.T) {
	g := NewGray(4, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			g.Set(x, y, float64(y*4+x))
		}
	}
	it := NewIntegral(g)
	if got := it.Sum(0, 0, 4, 3); got != 66 { // sum 0..11
		t.Errorf("full sum = %v, want 66", got)
	}
	if got := it.Sum(1, 1, 3, 2); got != 5+6 {
		t.Errorf("inner sum = %v, want 11", got)
	}
	if got := it.Sum(2, 2, 2, 2); got != 0 {
		t.Errorf("empty rect = %v", got)
	}
	if got := it.Sum(-5, -5, 100, 100); got != 66 {
		t.Errorf("clamped sum = %v, want 66", got)
	}
}

// Property: the integral image agrees with brute-force summation.
func TestIntegralProperty(t *testing.T) {
	f := func(seed int64, x0, y0, x1, y1 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGray(12, 9)
		for i := range g.Pix {
			g.Pix[i] = rng.Float64()
		}
		it := NewIntegral(g)
		ax0, ay0 := int(x0%13), int(y0%10)
		ax1, ay1 := int(x1%13), int(y1%10)
		var want float64
		for y := ay0; y < ay1; y++ {
			for x := ax0; x < ax1; x++ {
				if x < g.W && y < g.H {
					want += g.Pix[y*g.W+x]
				}
			}
		}
		return math.Abs(it.Sum(ax0, ay0, ax1, ay1)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMat3Identity(t *testing.T) {
	id := Identity3()
	x, y := id.Apply(3, 4)
	if x != 3 || y != 4 {
		t.Errorf("identity moved point to (%v, %v)", x, y)
	}
	if got := id.Mul(Translation(1, 2)); got != Translation(1, 2) {
		t.Errorf("I*T = %v", got)
	}
}

func TestMat3Compose(t *testing.T) {
	m := Translation(10, 0).Mul(Scaling(2, 2))
	x, y := m.Apply(1, 1)
	if x != 12 || y != 2 {
		t.Errorf("T(10,0)·S(2) applied to (1,1) = (%v,%v), want (12,2)", x, y)
	}
}

func TestMat3Inverse(t *testing.T) {
	m := RotationAbout(0.7, 5, 5).Mul(ScalingAbout(1.3, 1.3, 2, 2)).Mul(Translation(3, -1))
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	x, y := m.Apply(7, 11)
	bx, by := inv.Apply(x, y)
	if math.Abs(bx-7) > 1e-9 || math.Abs(by-11) > 1e-9 {
		t.Errorf("inverse round-trip = (%v, %v)", bx, by)
	}
	if _, err := (Mat3{}).Inverse(); err == nil {
		t.Error("singular matrix inverted")
	}
}

// Property: random invertible affine transforms round-trip points.
func TestMat3InverseProperty(t *testing.T) {
	f := func(tx, ty, theta, s float64) bool {
		theta = math.Mod(theta, math.Pi)
		s = 0.5 + math.Abs(math.Mod(s, 2)) // scale in [0.5, 2.5)
		tx = math.Mod(tx, 100)
		ty = math.Mod(ty, 100)
		if math.IsNaN(tx + ty + theta + s) {
			return true
		}
		m := Translation(tx, ty).Mul(Rotation(theta)).Mul(Scaling(s, s))
		inv, err := m.Inverse()
		if err != nil {
			return false
		}
		x, y := m.Apply(3, -7)
		bx, by := inv.Apply(x, y)
		return math.Abs(bx-3) < 1e-6 && math.Abs(by+7) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWarpIdentityIsNoop(t *testing.T) {
	g := NewGray(8, 8)
	rng := rand.New(rand.NewSource(3))
	for i := range g.Pix {
		g.Pix[i] = rng.Float64()
	}
	out, err := Warp(g, Identity3(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if MSE(g, out) > 1e-12 {
		t.Errorf("identity warp changed image: MSE %v", MSE(g, out))
	}
}

func TestWarpTranslation(t *testing.T) {
	g := NewGray(8, 8)
	g.Set(2, 2, 1)
	out, err := Warp(g, Translation(3, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(5, 3) != 1 {
		t.Errorf("translated pixel not at (5,3): %v", out.At(5, 3))
	}
	if out.At(2, 2) != 0 {
		t.Errorf("source pixel not cleared: %v", out.At(2, 2))
	}
}

func TestWarpFillOutside(t *testing.T) {
	g := NewGray(4, 4)
	out, err := Warp(g, Translation(10, 10), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 0.5 {
		t.Errorf("fill value = %v, want 0.5", out.At(0, 0))
	}
	if _, err := Warp(g, Mat3{}, 0); err == nil {
		t.Error("warp through singular matrix did not error")
	}
}

func TestWarpRGB(t *testing.T) {
	m := NewRGB(4, 4)
	m.Set(1, 1, 1, 0.5, 0.25)
	out, err := WarpRGB(m, Translation(1, 0), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, g, b := out.At(2, 1)
	if math.Abs(r-1) > 1e-9 || math.Abs(g-0.5) > 1e-9 || math.Abs(b-0.25) > 1e-9 {
		t.Errorf("warped pixel = (%v, %v, %v)", r, g, b)
	}
}

func TestMSE(t *testing.T) {
	a, b := NewGray(2, 2), NewGray(2, 2)
	if MSE(a, b) != 0 {
		t.Error("MSE of identical images != 0")
	}
	b.Set(0, 0, 1)
	if got := MSE(a, b); got != 0.25 {
		t.Errorf("MSE = %v, want 0.25", got)
	}
	if !math.IsInf(MSE(a, NewGray(3, 3)), 1) {
		t.Error("MSE of mismatched sizes != +Inf")
	}
}

func TestNoiseAndBrightness(t *testing.T) {
	g := NewGray(8, 8)
	for i := range g.Pix {
		g.Pix[i] = 0.5
	}
	n := AddNoise(g, 0.1, rand.New(rand.NewSource(4)))
	if MSE(g, n) == 0 {
		t.Error("noise had no effect")
	}
	for _, v := range n.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("noise escaped [0,1]: %v", v)
		}
	}
	br := AdjustBrightness(g, 0.3)
	if math.Abs(br.At(0, 0)-0.8) > 1e-12 {
		t.Errorf("brightness = %v", br.At(0, 0))
	}
	if got := AdjustBrightness(g, 0.9).At(0, 0); got != 1 {
		t.Errorf("brightness clamp = %v", got)
	}
}

func TestRGBHelpers(t *testing.T) {
	m := NewRGB(3, 3)
	m.Fill(0.1, 0.2, 0.3)
	r, g, b := m.At(1, 1)
	if r != 0.1 || g != 0.2 || b != 0.3 {
		t.Errorf("Fill: (%v, %v, %v)", r, g, b)
	}
	c := m.Clone()
	c.Set(0, 0, 1, 1, 1)
	if r, _, _ := m.At(0, 0); r == 1 {
		t.Error("Clone aliases original")
	}
	rz := ResizeRGB(m, 6, 6)
	if rz.W != 6 || rz.H != 6 {
		t.Errorf("ResizeRGB dims = %dx%d", rz.W, rz.H)
	}
	r, g, b = rz.At(3, 3)
	if math.Abs(r-0.1) > 1e-9 || math.Abs(g-0.2) > 1e-9 || math.Abs(b-0.3) > 1e-9 {
		t.Errorf("ResizeRGB constant image = (%v,%v,%v)", r, g, b)
	}
	blurred := BlurRGB(m, 0.8)
	r, g, b = blurred.At(1, 1)
	if math.Abs(r-0.1) > 1e-9 || math.Abs(g-0.2) > 1e-9 || math.Abs(b-0.3) > 1e-9 {
		t.Errorf("BlurRGB constant image = (%v,%v,%v)", r, g, b)
	}
	n := AddNoiseRGB(m, 0.1, rand.New(rand.NewSource(5)))
	same := true
	for i := range n.Pix {
		if n.Pix[i] != m.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("AddNoiseRGB had no effect")
	}
	b2 := AdjustBrightnessRGB(m, 0.5)
	if r, _, _ := b2.At(0, 0); math.Abs(r-0.6) > 1e-9 {
		t.Errorf("AdjustBrightnessRGB = %v", r)
	}
}

func TestNegativeDimensionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGray(-1, 1) did not panic")
		}
	}()
	NewGray(-1, 1)
}
