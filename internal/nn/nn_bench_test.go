package nn

import (
	"fmt"
	"testing"

	"repro/internal/imaging"
	"repro/internal/synth"
)

// BenchmarkTinyAlexNetInference measures one forward pass — the
// computation Potluck deduplicates in the recognition benchmarks.
func BenchmarkTinyAlexNetInference(b *testing.B) {
	net := NewTinyAlexNet(1)
	img := synth.NewCIFARLike(1).Sample(0, 0).Image
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Features(img)
	}
}

// BenchmarkClassify measures inference plus the nearest-centroid head.
func BenchmarkClassify(b *testing.B) {
	ds := synth.NewCIFARLike(2)
	var imgs []*imaging.RGB
	var labels []int
	for c := 0; c < 10; c++ {
		for v := 0; v < 2; v++ {
			s := ds.Sample(c, v)
			imgs = append(imgs, s.Image)
			labels = append(labels, s.Label)
		}
	}
	clf, err := Train(NewTinyAlexNet(2), imgs, labels, 10)
	if err != nil {
		b.Fatal(err)
	}
	probe := ds.Sample(3, 100).Image
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Classify(probe)
	}
}

// BenchmarkConvLayer isolates the dominant layer: one sub-benchmark per
// TinyAlexNet convolution, each on the input the network feeds it, its
// output handed back to the pool as Network.Forward does.
func BenchmarkConvLayer(b *testing.B) {
	net := NewTinyAlexNet(3)
	in := ImageToVolume(synth.NewCIFARLike(3).Sample(0, 0).Image, 32, 32)
	n := 0
	for _, l := range net.layers {
		if conv, ok := l.(*Conv2D); ok {
			n++
			name := fmt.Sprintf("conv%d_%dx%dx%d_k%d_out%d", n, in.C, in.H, in.W, conv.K, conv.OutC)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					putVolume(conv.Forward(in))
				}
			})
		}
		in = l.Forward(in)
	}
}

// BenchmarkLayer times each of TinyAlexNet's other layers (ReLU,
// MaxPool, Dense) on the input the network feeds it, its output handed
// back to the pool as Network.Forward does.
func BenchmarkLayer(b *testing.B) {
	net := NewTinyAlexNet(3)
	in := ImageToVolume(synth.NewCIFARLike(3).Sample(0, 0).Image, 32, 32)
	for i, l := range net.layers {
		if _, ok := l.(*Conv2D); !ok {
			name := fmt.Sprintf("%d_%T_%dx%dx%d", i, l, in.C, in.H, in.W)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					putVolume(l.Forward(in))
				}
			})
		}
		in = l.Forward(in)
	}
}
