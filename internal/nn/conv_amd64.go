package nn

// convPointAVX2 computes one output position of a block of convBlock
// output channels in AVX2 assembly (conv_amd64.s): sums holds the
// block's biases on entry and its outputs on return, and every lane adds
// its products in forwardBlock's order, so the bits are the Go loop's.
// in and w point at the first valid tap of input channel 0 and at that
// tap's packed weights; the skips, in samples and weights, step over the
// invalid taps after each row and the invalid rows after each channel.
// inC, rows and width must be at least 1, and every tap they reach must
// lie inside the input and the packed weights.
//
//go:noescape
func convPointAVX2(sums *[convBlock]float64, in, w *float64, inC, rows, width, inSkipRow, inSkipChan, wSkipRow, wSkipChan int)

// convPairAVX2 computes two output positions of a block of convBlock
// output channels in AVX2 assembly (conv_amd64.s): the positions share
// one valid tap range, the second's taps lying step samples past the
// first's. in, w, the counts and the skips are convPointAVX2's for the
// first position. Both positions start from bias and add their products
// in convPointAVX2's order, so the bits are the Go loop's; pair[p]
// receives position p's outputs.
//
//go:noescape
func convPairAVX2(pair *[2][convBlock]float64, bias *[convBlock]float64, in, w *float64, inC, rows, width, inSkipRow, inSkipChan, wSkipRow, wSkipChan, step int)

// maxPool2AVX2 runs a 2×2, stride-2 max pool over one channel in AVX2
// assembly (conv_amd64.s): rows output rows of 4·quads outputs, output
// row r from input rows 2r and 2r+1 of src (inW samples wide), written
// outW samples apart from dst. Each window keeps MaxPool.Forward's bits.
// rows and quads must be at least 1, and every sample they reach must
// lie inside src and dst.
//
//go:noescape
func maxPool2AVX2(dst, src *float64, rows, quads, inW, outW int)

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers across context switches (OSXSAVE set, and
// XCR0 enabling both the SSE and the AVX state).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
