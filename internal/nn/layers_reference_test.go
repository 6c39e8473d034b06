package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Golden-equivalence tests for ReLU, MaxPool and Dense: each Forward
// must give, output for output, the bits of the loop it replaced, kept
// below, on inputs that hold NaN, ±0 and ±Inf.

// reluReference is the original ReLU.Forward: a branch on every sample.
func reluReference(in *Volume) *Volume {
	out := NewVolume(in.C, in.H, in.W)
	for i, v := range in.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// maxPoolReference is the original MaxPool.Forward, reading each sample
// through Volume.At.
func maxPoolReference(p MaxPool, in *Volume) *Volume {
	oc, oh, ow := p.OutDims(in.C, in.H, in.W)
	out := NewVolume(oc, oh, ow)
	for c := 0; c < oc; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < p.K; ky++ {
					for kx := 0; kx < p.K; kx++ {
						v := in.At(c, oy*p.Stride+ky, ox*p.Stride+kx)
						if v > best {
							best = v
						}
					}
				}
				out.Data[(c*oh+oy)*ow+ox] = best
			}
		}
	}
	return out
}

// denseReference is the original Dense.Forward: one chain per output,
// each product rounded on its own.
func denseReference(d *Dense, in *Volume) *Volume {
	out := NewVolume(d.Out, 1, 1)
	for o := 0; o < d.Out; o++ {
		sum := d.Bias[o]
		base := o * d.In
		n := d.In
		if len(in.Data) < n {
			n = len(in.Data)
		}
		for i := 0; i < n; i++ {
			sum += float64(d.Weights[base+i] * in.Data[i])
		}
		out.Data[o] = sum
	}
	return out
}

// specialValues are the samples the layer tests salt their inputs with.
var specialValues = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xFFF8000000000001), // a NaN with the sign bit set
	math.Float64frombits(0x7FF0000000000001), // the NaN next to +Inf
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
}

// specialVolume is a testVolume salted with specialValues.
func specialVolume(c, h, w int, rng *rand.Rand) *Volume {
	v := testVolume(c, h, w, rng)
	salt(v, rng, specialValues...)
	return v
}

// TestReLUMatchesReference: NaN of either sign and −0 map to +0, every
// other sample to its reference bits.
func TestReLUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := NewVolume(1, 1, len(specialValues))
	copy(in.Data, specialValues)
	vols := []*Volume{in, specialVolume(3, 7, 9, rng), specialVolume(16, 32, 32, rng)}
	for _, in := range vols {
		want, got := reluReference(in), (ReLU{}).Forward(in)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("ReLU(%v) = %v, reference %v", in.Data[i], got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMaxPoolMatchesReference: a NaN never wins, the first of equal
// samples (−0 against +0) is kept, and a window of NaNs gives −Inf, as
// in the reference, over kernel sizes and strides that leave some
// samples out of every window and over odd widths, where the AVX2 path
// leaves columns to the Go loop. It runs on the Go loop and, where the
// CPU has AVX2, on maxPool2AVX2 for the 2×2, stride-2 pools.
func TestMaxPoolMatchesReference(t *testing.T) {
	saved := useAVX2
	t.Cleanup(func() { useAVX2 = saved })
	nan, negZero, negInf := math.NaN(), math.Copysign(0, -1), math.Inf(-1)
	// Eight 2×2 windows: ±0 ties either way round, all NaN, NaN with
	// −Inf, NaN before and after a number, all −Inf.
	ties := NewVolume(1, 2, 16)
	copy(ties.Data, []float64{
		negZero, 0, nan, nan, 0, nan, nan, negInf, nan, 1, 3, nan, negInf, negInf, 0, negZero,
		0, negZero, nan, nan, negZero, nan, nan, nan, nan, 2, nan, nan, negInf, negInf, negZero, 0,
	})
	wantTies := []float64{negZero, negInf, 0, negInf, 2, 3, negInf, 0}
	for _, avx := range convKernels() {
		useAVX2 = avx
		got := (MaxPool{K: 2, Stride: 2}).Forward(ties)
		for i, want := range wantTies {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want) {
				t.Errorf("avx2=%v: MaxPool over ties and NaNs = %v, want %v", avx, got.Data, wantTies)
				break
			}
		}
		rng := rand.New(rand.NewSource(6))
		for _, p := range []MaxPool{{2, 2}, {1, 1}, {2, 1}, {3, 2}, {3, 3}, {2, 3}} {
			for _, dims := range [][3]int{{1, 2, 16}, {3, 7, 9}, {16, 32, 32}, {2, 5, 3}, {2, 6, 11}, {1, 4, 17}, {3, 3, 19}} {
				in := specialVolume(dims[0], dims[1], dims[2], rng)
				if dims == [3]int{1, 2, 16} {
					in = ties
				}
				if _, oh, ow := p.OutDims(in.C, in.H, in.W); oh == 0 || ow == 0 {
					continue
				}
				want, got := maxPoolReference(p, in), p.Forward(in)
				if got.C != want.C || got.H != want.H || got.W != want.W {
					t.Fatalf("avx2=%v %+v on %v: dims %dx%dx%d, want %dx%dx%d", avx, p, dims, got.C, got.H, got.W, want.C, want.H, want.W)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("avx2=%v %+v on %v: output %d = %v, reference %v", avx, p, dims, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestDenseMatchesReference runs Dense.Forward and denseReference over
// output counts below, at and past multiples of the block, on inputs
// shorter than, as long as and longer than In.
func TestDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, out := range []int{1, 7, 8, 9, 16, 17, 128} {
		for _, in := range []int{1, 5, 64, 768} {
			d := NewDense(in, out, rng)
			for i := range d.Bias {
				d.Bias[i] = rng.NormFloat64()
			}
			d.Bias[0] = math.Copysign(0, -1)
			for _, n := range []int{in, in / 2, in + 3} {
				x := testVolume(n, 1, 1, rng)
				if n == in+3 {
					salt(x, rng, math.Inf(1), math.Inf(-1), math.NaN())
				}
				want, got := denseReference(d, x), d.Forward(x)
				for o := range want.Data {
					if !sameBits(got.Data[o], want.Data[o]) {
						t.Fatalf("Dense %d→%d on %d inputs: output %d = %v, reference %v", in, out, n, o, got.Data[o], want.Data[o])
					}
				}
			}
		}
	}
}

// TestShortInputPanics: the AVX2 kernels read their input unchecked, so
// a volume whose Data holds fewer than C·H·W samples must panic before
// it reaches them, on both paths, as the Go loops do.
func TestShortInputPanics(t *testing.T) {
	saved := useAVX2
	t.Cleanup(func() { useAVX2 = saved })
	conv := NewConv2D(2, 16, 3, 1, 1, rand.New(rand.NewSource(8)))
	layers := map[string]Layer{"Conv2D": conv, "MaxPool": MaxPool{K: 2, Stride: 2}}
	for _, avx := range convKernels() {
		useAVX2 = avx
		for name, l := range layers {
			in := NewVolume(2, 8, 8)
			n := len(in.Data) - 1
			in.Data = in.Data[:n:n]
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("avx2=%v: %s.Forward on a short input did not panic", avx, name)
					}
				}()
				l.Forward(in)
			}()
		}
	}
}
