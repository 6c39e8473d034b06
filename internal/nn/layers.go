package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/cpu"
)

// Layer transforms a volume.
type Layer interface {
	// Forward computes the layer output into a new volume, writing
	// every sample; it never returns in.
	Forward(in *Volume) *Volume
	// OutDims reports the output dimensions for the given input
	// dimensions, letting networks validate shapes at build time.
	OutDims(c, h, w int) (int, int, int)
}

// Conv2D is a 2-D convolution with zero padding. Its Weights are fixed
// once Forward has run: the first Forward packs them for the kernels,
// and later ones read only the packed copy. Bias may change between
// calls.
type Conv2D struct {
	InC, OutC   int
	K           int // kernel side
	Stride, Pad int
	Weights     []float64 // [outC][inC][K][K]
	Bias        []float64 // [outC]

	pack   sync.Once
	packed []float64 // Weights in blocks of convBlock channels; see packWeights
}

// NewConv2D builds a convolution with He-style random weights drawn from
// rng (deterministic given the caller's seed).
func NewConv2D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weights: make([]float64, outC*inC*k*k),
		Bias:    make([]float64, outC),
	}
	scale := math.Sqrt(2.0 / float64(inC*k*k))
	for i := range c.Weights {
		c.Weights[i] = rng.NormFloat64() * scale
	}
	return c
}

// OutDims implements Layer.
func (c *Conv2D) OutDims(_, h, w int) (int, int, int) {
	if h+2*c.Pad < c.K || w+2*c.Pad < c.K {
		return c.OutC, 0, 0
	}
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	return c.OutC, oh, ow
}

// convBlock is how many output channels Forward computes together: each
// load of an input tap feeds convBlock sums. The Go loop takes a block
// in two halves of convHalf channels, one register sum each.
const (
	convBlock = 16
	convHalf  = convBlock / 2
)

// Forward implements Layer. Each output is the bias plus its products
// added in one fixed order, ic, ky, kx ascending with the padded taps
// skipped: the order of the one-tap-at-a-time loop it replaced, so the
// bits are that loop's (TestConvMatchesReference keeps it). Output
// channels go in blocks of convBlock that keep their sums in registers
// and share each input load; a last, partial block is padded with
// zero-weight channels whose sums are dropped. The input must hold InC
// channels of in.H×in.W samples, which the AVX2 kernels read unchecked.
func (c *Conv2D) Forward(in *Volume) *Volume {
	if len(in.Data) < c.InC*in.H*in.W {
		panic(fmt.Sprintf("nn: conv input holds %d samples, want %d channels of %dx%d", len(in.Data), c.InC, in.H, in.W))
	}
	oc, oh, ow := c.OutDims(in.C, in.H, in.W)
	out := getVolume(oc, oh, ow)
	c.pack.Do(c.packWeights)
	taps := c.InC * c.K * c.K
	for o0 := 0; o0 < c.OutC; o0 += convBlock {
		n := min(convBlock, c.OutC-o0)
		var bias [convBlock]float64
		copy(bias[:], c.Bias[o0:o0+n])
		c.forwardBlock(out, in, o0, n, &bias, c.packed[o0*taps:][:taps*convBlock])
	}
	return out
}

// packWeights lays Weights out for forwardBlock: each block of convBlock
// output channels tap by tap, its channels side by side, so that
// packed[o0*taps+t*convBlock+j] is tap t's weight for channel o0+j. A
// last, partial block is padded with zero weights.
func (c *Conv2D) packWeights() {
	taps := c.InC * c.K * c.K
	blocks := (c.OutC + convBlock - 1) / convBlock
	c.packed = make([]float64, blocks*convBlock*taps)
	for o := 0; o < c.OutC; o++ {
		block := c.packed[o/convBlock*convBlock*taps:]
		for t, v := range c.Weights[o*taps:][:taps] {
			block[t*convBlock+o%convBlock] = v
		}
	}
}

// validTaps returns the kernel offsets [lo, hi) that land inside an
// input axis of the given size from the window's first position i0.
func validTaps(i0, k, size int) (lo, hi int) {
	lo, hi = max(0, -i0), min(k, size-i0)
	return lo, max(lo, hi)
}

// useAVX2 selects the AVX2 kernels: convPairAVX2 and convPointAVX2 in
// forwardBlock, maxPool2AVX2 in MaxPool.Forward. It is set once, from
// the CPU (package cpu), when the package initialises; off amd64, or on
// a CPU without AVX2, the Go loops run. Both give the same bits.
var useAVX2 = cpu.HasAVX2

// forwardBlock computes output channels o0 to o0+n-1 from the block's
// bias and packed weights w. Each output position computes its valid ky
// and kx ranges once, then adds its taps in an AVX2 kernel or in the Go
// loop. With AVX2, two positions that share one tap range go to
// convPairAVX2 together: a row whose next row has its ky range is
// computed with it, each column a vertical pair; in any other row, two
// neighbours with one kx range make a pair. The rest, at the borders,
// go to convPointAVX2 one at a time. Each product is rounded on its own
// (float64(...)), so that no architecture fuses it into a multiply-add
// and the bits are the same on every GOARCH and on every path.
func (c *Conv2D) forwardBlock(out, in *Volume, o0, n int, bias *[convBlock]float64, w []float64) {
	plane := out.H * out.W
	var sums [2][convBlock]float64
	for oy := 0; oy < out.H; oy++ {
		iy0 := oy*c.Stride - c.Pad
		kyLo, kyHi := validTaps(iy0, c.K, in.H)
		rows := kyHi - kyLo
		nextLo, nextHi := validTaps(iy0+c.Stride, c.K, in.H)
		rowPair := useAVX2 && rows > 0 && c.InC > 0 && oy+1 < out.H && nextLo == kyLo && nextHi == kyHi
		for ox := 0; ox < out.W; ox++ {
			ix0 := ox*c.Stride - c.Pad
			kxLo, kxHi := validTaps(ix0, c.K, in.W)
			width := kxHi - kxLo
			at := o0*plane + oy*out.W + ox
			if !useAVX2 || rows == 0 || width == 0 || c.InC == 0 {
				sums[0] = *bias
				if rows > 0 && width > 0 {
					c.sumTaps(&sums[0], n, in, w, iy0, ix0, kyLo, kyHi, kxLo, width)
				}
				if rowPair { // no valid kx tap: the row below has the bias too
					scatter(out.Data[at+out.W:], plane, sums[0][:n])
				}
				scatter(out.Data[at:], plane, sums[0][:n])
				continue
			}
			src, wt := &in.Data[(iy0+kyLo)*in.W+ix0+kxLo], &w[(kyLo*c.K+kxLo)*convBlock]
			inSkipRow, inSkipChan := in.W-width, (in.H-rows)*in.W
			wSkipRow, wSkipChan := (c.K-width)*convBlock, (c.K-rows)*c.K*convBlock
			step, next := 0, 0
			if rowPair {
				step, next = c.Stride*in.W, out.W
			} else if lo, hi := validTaps(ix0+c.Stride, c.K, in.W); ox+1 < out.W && lo == kxLo && hi == kxHi {
				step, next = c.Stride, 1
			}
			if next == 0 {
				sums[0] = *bias
				convPointAVX2(&sums[0], src, wt, c.InC, rows, width, inSkipRow, inSkipChan, wSkipRow, wSkipChan)
				scatter(out.Data[at:], plane, sums[0][:n])
				continue
			}
			convPairAVX2(&sums, bias, src, wt, c.InC, rows, width, inSkipRow, inSkipChan, wSkipRow, wSkipChan, step)
			scatter(out.Data[at:], plane, sums[0][:n])
			scatter(out.Data[at+next:], plane, sums[1][:n])
			if next == 1 {
				ox++
			}
		}
		if rowPair {
			oy++
		}
	}
}

// scatter writes one output position's channels to dst[0], dst[plane],
// and so on.
func scatter(dst []float64, plane int, sums []float64) {
	for j, v := range sums {
		dst[j*plane] = v
	}
}

// sumTaps is the Go loop: it adds the taps of the output position whose
// window starts at (iy0, ix0), over the valid ky range [kyLo, kyHi) and
// the width kx taps from kxLo, to the first n sums, convHalf channels
// at a time.
func (c *Conv2D) sumTaps(sums *[convBlock]float64, n int, in *Volume, w []float64, iy0, ix0, kyLo, kyHi, kxLo, width int) {
	for h := 0; h < n; h += convHalf {
		s := (*[convHalf]float64)(sums[h:])
		s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
		s4, s5, s6, s7 := s[4], s[5], s[6], s[7]
		for ic := 0; ic < c.InC; ic++ {
			for ky := kyLo; ky < kyHi; ky++ {
				row := in.Data[(ic*in.H+iy0+ky)*in.W+ix0+kxLo:][:width]
				wr := w[((ic*c.K+ky)*c.K+kxLo)*convBlock:][:width*convBlock]
				for i, x := range row {
					t := wr[i*convBlock+h:][:convHalf]
					s0 += float64(t[0] * x)
					s1 += float64(t[1] * x)
					s2 += float64(t[2] * x)
					s3 += float64(t[3] * x)
					s4 += float64(t[4] * x)
					s5 += float64(t[5] * x)
					s6 += float64(t[6] * x)
					s7 += float64(t[7] * x)
				}
			}
		}
		*s = [convHalf]float64{s0, s1, s2, s3, s4, s5, s6, s7}
	}
}

// ReLU applies max(0, x) elementwise. NaN and −0 map to +0.
type ReLU struct{}

// OutDims implements Layer.
func (ReLU) OutDims(c, h, w int) (int, int, int) { return c, h, w }

// Forward implements Layer. A sample is kept when it is above 0, which
// is when its bits, as an unsigned integer, lie in [1, +Inf's bits]:
// a set sign bit, a zero and a NaN all fall outside. The test is on
// integers so that it compiles to a conditional move, not a branch on
// every sample.
func (ReLU) Forward(in *Volume) *Volume {
	out := getVolume(in.C, in.H, in.W)
	dst := out.Data[:len(in.Data)]
	const posInf = 0x7FF0000000000000
	for i, v := range in.Data {
		b := math.Float64bits(v)
		var keep uint64
		if b-1 < posInf {
			keep = b
		}
		dst[i] = math.Float64frombits(keep)
	}
	return out
}

// MaxPool downsamples with a k×k max filter.
type MaxPool struct {
	K, Stride int
}

// OutDims implements Layer.
func (p MaxPool) OutDims(c, h, w int) (int, int, int) {
	if h < p.K || w < p.K {
		return c, 0, 0
	}
	return c, (h-p.K)/p.Stride + 1, (w-p.K)/p.Stride + 1
}

// Forward implements Layer. Each window starts from −Inf and takes a
// sample only when it is greater, in ky, kx order, so a NaN never wins
// and the first of equal samples (−0 before +0, say) is kept. With
// AVX2, a 2×2, stride-2 pool computes each channel's first 4·(ow/4)
// columns in maxPool2AVX2, with the same bits. Otherwise, and for the
// remaining columns, an output row is built one input row at a time:
// its windows' maxima so far stay in the output while each kernel row
// is scanned. OutDims keeps every window inside the input, so the rows
// are indexed directly.
func (p MaxPool) Forward(in *Volume) *Volume {
	oc, oh, ow := p.OutDims(in.C, in.H, in.W)
	out := getVolume(oc, oh, ow)
	ox0 := 0
	if useAVX2 && p.K == 2 && p.Stride == 2 {
		ox0 = ow / 4 * 4
	}
	for c := 0; c < oc; c++ {
		if ox0 > 0 { // sliced to the channel, so a short input panics here
			src, dst := in.Data[c*in.H*in.W:][:in.H*in.W], out.Data[c*oh*ow:][:oh*ow]
			maxPool2AVX2(&dst[0], &src[0], oh, ox0/4, in.W, ow)
		}
		if ox0 == ow {
			continue
		}
		for oy := 0; oy < oh; oy++ {
			top := (c*in.H + oy*p.Stride) * in.W
			dst := out.Data[(c*oh+oy)*ow:][ox0:ow]
			for ox := range dst {
				dst[ox] = math.Inf(-1)
			}
			for ky := 0; ky < p.K; ky++ {
				row := in.Data[top+ky*in.W:][:in.W]
				for ox, best := range dst {
					for _, v := range row[(ox0+ox)*p.Stride:][:p.K] {
						if v > best {
							best = v
						}
					}
					dst[ox] = best
				}
			}
		}
	}
	return out
}

// Dense is a fully connected layer applied to the flattened input.
type Dense struct {
	In, Out int
	Weights []float64 // [out][in]
	Bias    []float64
}

// NewDense builds a dense layer with Xavier-style random weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, Weights: make([]float64, in*out), Bias: make([]float64, out)}
	scale := math.Sqrt(1.0 / float64(in))
	for i := range d.Weights {
		d.Weights[i] = rng.NormFloat64() * scale
	}
	return d
}

// OutDims implements Layer.
func (d *Dense) OutDims(_, _, _ int) (int, int, int) { return d.Out, 1, 1 }

// denseBlock is how many outputs Dense.Forward computes in one pass
// over the input.
const denseBlock = 8

// Forward implements Layer. Each output is its bias plus the products of
// its weight row and the input, added in input order, each product
// rounded on its own (float64(...), so no architecture fuses it).
// Outputs go in blocks of denseBlock whose independent chains share
// each input load; the last Out%denseBlock go one at a time, in the
// same order. An input shorter than In is read as far as it goes.
func (d *Dense) Forward(in *Volume) *Volume {
	out := getVolume(d.Out, 1, 1)
	x := in.Data[:min(d.In, len(in.Data))]
	row := func(o int) []float64 { return d.Weights[o*d.In:][:len(x)] }
	o := 0
	for ; o+denseBlock <= d.Out; o += denseBlock {
		w0, w1, w2, w3 := row(o), row(o+1), row(o+2), row(o+3)
		w4, w5, w6, w7 := row(o+4), row(o+5), row(o+6), row(o+7)
		b := d.Bias[o : o+denseBlock]
		s0, s1, s2, s3 := b[0], b[1], b[2], b[3]
		s4, s5, s6, s7 := b[4], b[5], b[6], b[7]
		for i, v := range x {
			s0 += float64(w0[i] * v)
			s1 += float64(w1[i] * v)
			s2 += float64(w2[i] * v)
			s3 += float64(w3[i] * v)
			s4 += float64(w4[i] * v)
			s5 += float64(w5[i] * v)
			s6 += float64(w6[i] * v)
			s7 += float64(w7[i] * v)
		}
		copy(out.Data[o:], []float64{s0, s1, s2, s3, s4, s5, s6, s7})
	}
	for ; o < d.Out; o++ {
		sum := d.Bias[o]
		for i, v := range row(o) {
			sum += float64(v * x[i])
		}
		out.Data[o] = sum
	}
	return out
}

// Softmax normalizes scores into a probability distribution.
func Softmax(scores []float64) []float64 {
	if len(scores) == 0 {
		return nil
	}
	max := scores[0]
	for _, s := range scores[1:] {
		if s > max {
			max = s
		}
	}
	out := make([]float64, len(scores))
	var sum float64
	for i, s := range scores {
		out[i] = math.Exp(s - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
