package nn

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Golden-equivalence test for the convolution: Conv2D.Forward, on the
// AVX2 kernels and on the blocked Go loop, must produce, output for
// output, the bits of the one-tap-at-a-time loop below, the loop the
// blocked one replaced, with each product rounded on its own. Every
// comparison is on Float64bits, not a tolerance.

// convReference is the original Conv2D.Forward: each output a single
// chain of the bias, then ic, ky, kx ascending, with a bounds test on
// every tap. Each product is rounded on its own (float64(...)), so no
// GOARCH fuses it into a multiply-add.
func convReference(c *Conv2D, in *Volume) *Volume {
	oc, oh, ow := c.OutDims(in.C, in.H, in.W)
	out := NewVolume(oc, oh, ow)
	for o := 0; o < c.OutC; o++ {
		wBase := o * c.InC * c.K * c.K
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := c.Bias[o]
				iy0 := oy*c.Stride - c.Pad
				ix0 := ox*c.Stride - c.Pad
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= in.H {
							continue
						}
						rowBase := (ic*in.H + iy) * in.W
						wRow := wBase + (ic*c.K+ky)*c.K
						for kx := 0; kx < c.K; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= in.W {
								continue
							}
							sum += float64(c.Weights[wRow+kx] * in.Data[rowBase+ix])
						}
					}
				}
				out.Data[(o*oh+oy)*ow+ox] = sum
			}
		}
	}
	return out
}

// convCase is one convolution shape and the input size it runs on.
type convCase struct {
	inC, outC, k, stride, pad int
	h, w                      int
}

func (cc convCase) String() string {
	return fmt.Sprintf("in%d_out%d_k%d_s%d_p%d_%dx%d", cc.inC, cc.outC, cc.k, cc.stride, cc.pad, cc.h, cc.w)
}

// tinyAlexNetConvs are TinyAlexNet's three convolutions at the input
// sizes the network feeds them.
var tinyAlexNetConvs = []convCase{
	{3, 16, 5, 1, 2, 32, 32},
	{16, 32, 3, 1, 1, 16, 16},
	{32, 48, 3, 1, 1, 8, 8},
}

// edgeConvCases reach the edges of the AVX2 kernels' loops and of the
// block: K = 1, InC = 1, OutC of 1, 9 and 17, strides 2 and 3, an input
// one sample wide (every tap row one wide), and padding of K or more,
// where a window at the border has tap rows of zero width or no valid
// row at all.
var edgeConvCases = []convCase{
	{1, 1, 1, 1, 0, 5, 7},
	{3, 9, 1, 2, 0, 6, 5},
	{1, 17, 3, 3, 1, 10, 11},
	{2, 9, 3, 1, 1, 4, 1},
	{1, 1, 5, 2, 2, 1, 9},
	{2, 17, 2, 1, 2, 5, 4},
	{3, 1, 3, 2, 3, 7, 6},
	{1, 9, 5, 3, 4, 3, 2},
}

// groupedConvCases reach the edges of the AVX2 path's position pairs:
// output widths 4, 5, 7, 8 and 9 (odd runs leave one position of a row
// or of a pair of rows alone), odd and even heights, strides 2 and 3
// between the paired positions, in both directions, padding of K or
// more (columns and rows with no valid tap inside paired rows), rows
// whose interior holds one column, too few for a pair, and OutC at,
// below and past multiples of the 16-channel block.
var groupedConvCases = []convCase{
	{2, 16, 3, 1, 1, 5, 4},
	{3, 16, 3, 1, 1, 6, 5},
	{2, 32, 3, 1, 1, 7, 7},
	{4, 17, 3, 1, 1, 8, 8},
	{1, 24, 3, 1, 1, 9, 9},
	{2, 16, 5, 1, 2, 9, 9},
	{2, 9, 3, 2, 1, 11, 13},
	{3, 20, 3, 3, 0, 13, 16},
	{1, 16, 2, 3, 1, 12, 17},
	{1, 16, 2, 1, 3, 6, 7},
	{2, 16, 1, 1, 2, 5, 6},
	{2, 16, 3, 1, 1, 1, 3},
	{2, 16, 3, 1, 1, 3, 3},
	{3, 33, 3, 1, 1, 2, 12},
}

// randomConvCases draws n seeded shapes, each with OutC not a multiple
// of the block width, and adds the edge cases a draw may miss: a stride
// above 1, no padding, and an input narrower than the kernel.
func randomConvCases(n int, seed int64) []convCase {
	rng := rand.New(rand.NewSource(seed))
	cases := []convCase{
		{2, 11, 3, 2, 1, 9, 7},
		{4, 3, 5, 3, 0, 13, 17},
		{3, 9, 7, 1, 3, 5, 6}, // narrower than K, made wide enough by padding
		{1, 8, 7, 2, 2, 4, 11},
		{5, 2, 1, 1, 0, 6, 1},
	}
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(6)
		cases = append(cases, convCase{
			inC: 1 + rng.Intn(6), outC: 1 + rng.Intn(20), k: k,
			stride: 1 + rng.Intn(3), pad: rng.Intn(k),
			h: 1 + rng.Intn(14), w: 1 + rng.Intn(14),
		})
	}
	return cases
}

// testVolume fills a volume with seeded values, salted with exact zeros,
// ones and negative zeros so that the sign of a zero sum is checked too.
func testVolume(c, h, w int, rng *rand.Rand) *Volume {
	v := NewVolume(c, h, w)
	for i := range v.Data {
		switch rng.Intn(16) {
		case 0:
			v.Data[i] = 0
		case 1:
			v.Data[i] = 1
		case 2:
			v.Data[i] = math.Copysign(0, -1)
		default:
			v.Data[i] = rng.NormFloat64()
		}
	}
	return v
}

// salt overwrites about one sample in 16 of v with one of specials.
func salt(v *Volume, rng *rand.Rand, specials ...float64) {
	for i := range v.Data {
		if rng.Intn(16) == 0 {
			v.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// sameBits reports whether got has want's bits, or, where want is a NaN,
// is a NaN too: two kernels may give a NaN different payloads.
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// convKernels lists the values of useAVX2 this CPU can run: the Go
// loops always, and the AVX2 kernels where the CPU has AVX2.
func convKernels() []bool {
	if cpuHasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// TestConvMatchesReference runs Forward, on the Go loop and on the AVX2
// kernels where the CPU has AVX2, and convReference on the same
// convolution and input and compares every output's bits. The inputs
// hold ±0 and, in the later trials, ±Inf and NaN; the biases hold ±0.
func TestConvMatchesReference(t *testing.T) {
	saved := useAVX2
	t.Cleanup(func() { useAVX2 = saved })
	cases := slices.Concat(tinyAlexNetConvs, edgeConvCases, groupedConvCases, randomConvCases(40, 43))
	inf := math.Inf(1)
	for _, avx := range convKernels() {
		useAVX2 = avx
		rng := rand.New(rand.NewSource(1))
		for _, cc := range cases {
			if _, oh, ow := (&Conv2D{K: cc.k, Stride: cc.stride, Pad: cc.pad}).OutDims(cc.inC, cc.h, cc.w); oh == 0 || ow == 0 {
				continue // NewNetwork refuses a layer that collapses its input
			}
			conv := NewConv2D(cc.inC, cc.outC, cc.k, cc.stride, cc.pad, rng)
			for i := range conv.Bias {
				conv.Bias[i] = rng.NormFloat64()
			}
			conv.Bias[0] = math.Copysign(0, -1)
			conv.Bias[len(conv.Bias)-1] = 0
			for trial := 0; trial < 4; trial++ {
				in := testVolume(cc.inC, cc.h, cc.w, rng)
				switch trial {
				case 2:
					salt(in, rng, inf, -inf)
				case 3:
					salt(in, rng, inf, -inf, math.NaN())
				}
				want, got := convReference(conv, in), conv.Forward(in)
				if got.C != want.C || got.H != want.H || got.W != want.W {
					t.Fatalf("avx2=%v %v: dims %dx%dx%d, want %dx%dx%d", avx, cc, got.C, got.H, got.W, want.C, want.H, want.W)
				}
				for j := range want.Data {
					if !sameBits(got.Data[j], want.Data[j]) {
						t.Fatalf("avx2=%v %v trial %d: output %d = %v, reference %v", avx, cc, trial, j, got.Data[j], want.Data[j])
					}
				}
			}
		}
	}
}

// TestConvUsesAVX2 fails when the CPU has AVX2 but the convolution runs
// the Go loop, so that a broken CPU check cannot leave the AVX2 kernel
// untested and unused. On Linux it also holds the CPUID check to the
// kernel's own list of CPU flags.
func TestConvUsesAVX2(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the AVX2 kernel is amd64 only; GOARCH=%s runs the Go loop", runtime.GOARCH)
	}
	has := cpuHasAVX2()
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil && !has {
		for _, line := range strings.Split(string(info), "\n") {
			if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" && slices.Contains(strings.Fields(flags), "avx2") {
				t.Fatal("/proc/cpuinfo lists avx2, but cpuHasAVX2 reports none")
			}
		}
	}
	if !has {
		t.Skip("this CPU has no AVX2: only the Go loop runs")
	}
	if !useAVX2 {
		t.Fatal("the CPU has AVX2, but the convolution runs the Go loop")
	}
}
