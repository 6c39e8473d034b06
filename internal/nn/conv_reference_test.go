package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Golden-equivalence test for the blocked convolution: Conv2D.Forward
// must produce, output for output, the bits of the one-tap-at-a-time
// loop below, which is the loop it replaced, kept verbatim. Every
// comparison is on Float64bits, not a tolerance.

// convReference is the original Conv2D.Forward: each output a single
// chain of the bias, then ic, ky, kx ascending, with a bounds test on
// every tap.
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
							sum += c.Weights[wRow+kx] * in.Data[rowBase+ix]
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

// TestConvMatchesReference runs Forward and convReference on the same
// convolution and input and compares every output's bits.
func TestConvMatchesReference(t *testing.T) {
	cases := append(append([]convCase(nil), tinyAlexNetConvs...), randomConvCases(40, 43)...)
	rng := rand.New(rand.NewSource(1))
	for _, cc := range cases {
		if _, oh, ow := (&Conv2D{K: cc.k, Stride: cc.stride, Pad: cc.pad}).OutDims(cc.inC, cc.h, cc.w); oh == 0 || ow == 0 {
			continue // NewNetwork refuses a layer that collapses its input
		}
		conv := NewConv2D(cc.inC, cc.outC, cc.k, cc.stride, cc.pad, rng)
		for i := range conv.Bias {
			conv.Bias[i] = rng.NormFloat64()
		}
		for trial := 0; trial < 3; trial++ {
			in := testVolume(cc.inC, cc.h, cc.w, rng)
			want, got := convReference(conv, in), conv.Forward(in)
			if got.C != want.C || got.H != want.H || got.W != want.W {
				t.Fatalf("%v: dims %dx%dx%d, want %dx%dx%d", cc, got.C, got.H, got.W, want.C, want.H, want.W)
			}
			for j := range want.Data {
				if math.Float64bits(got.Data[j]) != math.Float64bits(want.Data[j]) {
					t.Fatalf("%v trial %d: output %d = %v, reference %v", cc, trial, j, got.Data[j], want.Data[j])
				}
			}
		}
	}
}
