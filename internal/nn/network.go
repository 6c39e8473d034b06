package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/imaging"
)

// Network is a feed-forward stack of layers producing a feature vector.
type Network struct {
	layers []Layer
	inC    int
	inH    int
	inW    int
	outLen int
}

// NewNetwork validates that the layer stack accepts c×h×w input and
// returns the assembled network.
func NewNetwork(c, h, w int, layers ...Layer) (*Network, error) {
	cc, ch, cw := c, h, w
	for i, l := range layers {
		cc, ch, cw = l.OutDims(cc, ch, cw)
		if cc <= 0 || ch <= 0 || cw <= 0 {
			return nil, fmt.Errorf("nn: layer %d collapses dims to %dx%dx%d", i, cc, ch, cw)
		}
	}
	return &Network{layers: layers, inC: c, inH: h, inW: w, outLen: cc * ch * cw}, nil
}

// OutLen returns the length of the network's output feature vector.
func (n *Network) OutLen() int { return n.outLen }

// InputDims returns the expected input dimensions.
func (n *Network) InputDims() (c, h, w int) { return n.inC, n.inH, n.inW }

// Forward runs the network on a volume. Each layer's output goes back
// to the buffer pool once the next layer has read it; in and the
// returned volume are never pooled by Forward.
func (n *Network) Forward(in *Volume) *Volume {
	out := in
	for _, l := range n.layers {
		next := l.Forward(out)
		if out != in {
			putVolume(out)
		}
		out = next
	}
	return out
}

// Features converts an RGB image to the network input size and returns
// the output feature vector, which the caller owns.
func (n *Network) Features(img *imaging.RGB) []float64 {
	in := ImageToVolume(img, n.inH, n.inW)
	out := n.Forward(in)
	if out != in {
		putVolume(in)
	}
	return out.Flat()
}

// ImageToVolume resizes img to h×w and converts it to a 3×h×w volume
// with channels in [0, 1].
func ImageToVolume(img *imaging.RGB, h, w int) *Volume {
	if img.W != w || img.H != h {
		resized := imaging.ResizeRGBInto(imaging.GetRGB(w, h), img, w, h)
		defer imaging.PutRGB(resized)
		img = resized
	}
	v := getVolume(3, h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, b := img.At(x, y)
			v.Set(0, y, x, r)
			v.Set(1, y, x, g)
			v.Set(2, y, x, b)
		}
	}
	return v
}

// NewTinyAlexNet builds the scaled-down AlexNet-style feature extractor
// used by the recognition benchmark: three conv+ReLU+pool stages
// followed by a dense projection, for 3×32×32 input. Weights are
// deterministic for a given seed, standing in for the paper's
// "pre-trained models" (§5.1).
func NewTinyAlexNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	conv1 := NewConv2D(3, 16, 5, 1, 2, rng)
	conv2 := NewConv2D(16, 32, 3, 1, 1, rng)
	conv3 := NewConv2D(32, 48, 3, 1, 1, rng)
	// 32→16→8→4 spatially; 48·4·4 = 768 → 128-D feature.
	dense := NewDense(48*4*4, 128, rng)
	net, err := NewNetwork(3, 32, 32,
		conv1, ReLU{}, MaxPool{K: 2, Stride: 2},
		conv2, ReLU{}, MaxPool{K: 2, Stride: 2},
		conv3, ReLU{}, MaxPool{K: 2, Stride: 2},
		dense,
	)
	if err != nil {
		panic(err) // the architecture above is statically consistent
	}
	return net
}
