package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/imaging"
	"repro/internal/synth"
)

// fingerprintImages are the inputs TestTinyAlexNetFingerprint hashes:
// one sample of each CIFAR-like class at the network's input size, and
// one stretched to 48×40 so that Features' resize runs too.
func fingerprintImages(seed int64) []*imaging.RGB {
	ds := synth.NewCIFARLike(seed)
	var imgs []*imaging.RGB
	for c := 0; c < ds.Classes; c++ {
		imgs = append(imgs, ds.Sample(c, 0).Image)
	}
	return append(imgs, imaging.ResizeRGB(ds.Sample(0, 1).Image, 48, 40))
}

// featureHash is the FNV-1a hash of the Float64bits of net's features on
// imgs, in order. before, if not nil, runs before each image.
func featureHash(net *Network, imgs []*imaging.RGB, before func()) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, img := range imgs {
		if before != nil {
			before()
		}
		for _, v := range net.Features(img) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// fingerprints are featureHash's values on fingerprintImages(seed), for
// the network of the same seed.
var fingerprints = []struct {
	seed int64
	want uint64
}{
	{1, 0x9e42cd2d250e1a12},
	{7, 0x9329309d0b319af7},
}

// TestTinyAlexNetFingerprint pins TinyAlexNet's output bits. The
// constants were computed with the one-tap-at-a-time convolution loop
// that convReference keeps and freshly allocated layer outputs, so a
// kernel that reorders a sum, fuses a multiply-add or skips another set
// of padded taps changes them, and so does a layer that reads a stale
// sample of a recycled buffer. They hold on the Go loops and, where the
// CPU has AVX2, on the AVX2 kernels: the test runs once on each.
// TestTinyAlexNetDeterministic only checks that two runs agree.
func TestTinyAlexNetFingerprint(t *testing.T) {
	saved := useAVX2
	t.Cleanup(func() { useAVX2 = saved })
	for _, avx := range convKernels() {
		useAVX2 = avx
		for _, tc := range fingerprints {
			if got := featureHash(NewTinyAlexNet(tc.seed), fingerprintImages(tc.seed), nil); got != tc.want {
				t.Errorf("seed %d, AVX2 %v: feature hash %#016x, want %#016x", tc.seed, avx, got, tc.want)
			}
		}
	}
}
