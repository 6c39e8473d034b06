//go:build !amd64

package vec

// squares8AVX2 is never called off amd64, where useAVX2 stays false.
func squares8AVX2(*float64, *float64, *float64, int, int) {
	panic("vec: no AVX2 distance kernel on this GOARCH")
}
