//go:build !amd64

package nn

// convPointAVX2 is never called off amd64, where useAVX2 stays false.
func convPointAVX2(*[convBlock]float64, *float64, *float64, int, int, int, int, int, int, int) {
	panic("nn: no AVX2 convolution kernel on this GOARCH")
}

// convPairAVX2 is never called off amd64, where useAVX2 stays false.
func convPairAVX2(*[2][convBlock]float64, *[convBlock]float64, *float64, *float64, int, int, int, int, int, int, int, int) {
	panic("nn: no AVX2 convolution kernel on this GOARCH")
}

// maxPool2AVX2 is never called off amd64, where useAVX2 stays false.
func maxPool2AVX2(*float64, *float64, int, int, int, int) {
	panic("nn: no AVX2 max-pool kernel on this GOARCH")
}
