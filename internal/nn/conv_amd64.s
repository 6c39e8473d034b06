#include "textflag.h"

// These are ABI0 functions, so they may use all 16 YMM registers: a Go
// caller re-zeroes X15, which its register ABI keeps zero, after the
// call returns.

// func convPointAVX2(sums *[convBlock]float64, in, w *float64, inC, rows, width, inSkipRow, inSkipChan, wSkipRow, wSkipChan int)
//
// One output position of a block of 16 output channels. sums holds the
// block's biases on entry and its 16 outputs on return; Y4 to Y7 carry
// channels 0-3, 4-7, 8-11 and 12-15, four independent chains. in points
// at the first valid tap of input channel 0, w at that tap's 16 packed
// weights. The loops walk ic, then the rows valid taps, then the width
// valid taps of each row, in ascending order; each tap broadcasts its
// input, multiplies it by the 16 weights and adds the products to the
// sums in separate instructions (never a fused multiply-add), so each
// lane rounds exactly as the Go loop's serial chain does. After a row,
// in and w skip the row's invalid taps (inSkipRow samples, wSkipRow
// weights); after a channel, its invalid rows (inSkipChan, wSkipChan).
// inC, rows and width must be at least 1.
TEXT ·convPointAVX2(SB), NOSPLIT, $0-80
	MOVQ    sums+0(FP), AX
	MOVQ    in+8(FP), SI
	MOVQ    w+16(FP), DI
	MOVQ    inC+24(FP), CX
	MOVQ    rows+32(FP), R8
	MOVQ    width+40(FP), R9
	MOVQ    inSkipRow+48(FP), R10
	MOVQ    inSkipChan+56(FP), R11
	MOVQ    wSkipRow+64(FP), R12
	MOVQ    wSkipChan+72(FP), R13
	SHLQ    $3, R10
	SHLQ    $3, R11
	SHLQ    $3, R12
	SHLQ    $3, R13
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7

chanLoop:
	MOVQ R8, DX

rowLoop:
	MOVQ R9, BX

tapLoop:
	VBROADCASTSD (SI), Y0
	VMULPD       (DI), Y0, Y1
	VMULPD       32(DI), Y0, Y2
	VMULPD       64(DI), Y0, Y3
	VMULPD       96(DI), Y0, Y8
	VADDPD       Y1, Y4, Y4
	VADDPD       Y2, Y5, Y5
	VADDPD       Y3, Y6, Y6
	VADDPD       Y8, Y7, Y7
	ADDQ         $8, SI
	ADDQ         $128, DI
	DECQ         BX
	JNZ          tapLoop

	ADDQ R10, SI
	ADDQ R12, DI
	DECQ DX
	JNZ  rowLoop

	ADDQ R11, SI
	ADDQ R13, DI
	DECQ CX
	JNZ  chanLoop

	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, 64(AX)
	VMOVUPD Y7, 96(AX)
	VZEROUPPER
	RET

// func convPairAVX2(pair *[2][convBlock]float64, bias *[convBlock]float64, in, w *float64, inC, rows, width, inSkipRow, inSkipChan, wSkipRow, wSkipChan, step int)
//
// Two output positions of a block of 16 output channels that share one
// valid tap range: the second position's taps are the first's moved
// step samples. in, w, the counts and the skips are convPointAVX2's for
// the first position. Both positions' sums start from bias, Y0 to Y3
// carrying the first position's channels and Y4 to Y7 the second's, so
// the 8 chains are independent and hide each other's add latency; each
// tap loads its 16 weights once for both positions and adds every
// product in a separate instruction (never a fused multiply-add), in
// convPointAVX2's order. pair[p] receives position p's 16 outputs.
TEXT ·convPairAVX2(SB), NOSPLIT, $0-96
	MOVQ    bias+8(FP), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD Y0, Y4
	VMOVUPD Y1, Y5
	VMOVUPD Y2, Y6
	VMOVUPD Y3, Y7
	MOVQ    in+16(FP), SI
	MOVQ    w+24(FP), DI
	MOVQ    inC+32(FP), CX
	MOVQ    rows+40(FP), R8
	MOVQ    width+48(FP), R9
	MOVQ    inSkipRow+56(FP), R10
	MOVQ    inSkipChan+64(FP), R11
	MOVQ    wSkipRow+72(FP), R12
	MOVQ    wSkipChan+80(FP), R13
	MOVQ    step+88(FP), AX
	SHLQ    $3, R10
	SHLQ    $3, R11
	SHLQ    $3, R12
	SHLQ    $3, R13
	SHLQ    $3, AX

pairChanLoop:
	MOVQ R8, DX

pairRowLoop:
	MOVQ R9, BX

pairTapLoop:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VMOVUPD      64(DI), Y10
	VMOVUPD      96(DI), Y11
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (SI)(AX*1), Y13
	VMULPD       Y8, Y12, Y14
	VMULPD       Y9, Y12, Y15
	VADDPD       Y14, Y0, Y0
	VADDPD       Y15, Y1, Y1
	VMULPD       Y10, Y12, Y14
	VMULPD       Y11, Y12, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y4, Y4
	VADDPD       Y15, Y5, Y5
	VMULPD       Y10, Y13, Y14
	VMULPD       Y11, Y13, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         $8, SI
	ADDQ         $128, DI
	DECQ         BX
	JNZ          pairTapLoop

	ADDQ R10, SI
	ADDQ R12, DI
	DECQ DX
	JNZ  pairRowLoop

	ADDQ R11, SI
	ADDQ R13, DI
	DECQ CX
	JNZ  pairChanLoop

	MOVQ    pair+0(FP), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VZEROUPPER
	RET

// func maxPool2AVX2(dst, src *float64, rows, quads, inW, outW int)
//
// A 2×2, stride-2 max pool over one channel: rows output rows of
// 4·quads outputs each, output row r read from input rows 2r and 2r+1
// (inW samples apart) of src and written to dst+r·outW. Each window
// starts from −Inf and takes its samples in ky, kx order through
// VMAXPD with the sample as the first source and the running maximum as
// the second, which keeps the maximum unless the sample is greater:
// exactly "if v > best { best = v }", so a NaN never wins and the first
// of equal samples (−0 before +0) is kept. VUNPCKLPD and VUNPCKHPD
// split 8 input samples into the windows' left and right columns, in
// the output order 0, 2, 1, 3, which VPERMPD restores. rows and quads
// must be at least 1.
TEXT ·maxPool2AVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), CX
	MOVQ         quads+24(FP), R8
	MOVQ         inW+32(FP), R9
	MOVQ         outW+40(FP), R10
	SHLQ         $3, R9
	SHLQ         $3, R10
	MOVQ         $0xFFF0000000000000, AX
	MOVQ         AX, X15
	VBROADCASTSD X15, Y15

poolRowLoop:
	MOVQ SI, R11
	MOVQ DI, R12
	MOVQ R8, BX

poolQuadLoop:
	VMOVUPD    (R11), Y0
	VMOVUPD    32(R11), Y1
	VMOVUPD    (R11)(R9*1), Y2
	VMOVUPD    32(R11)(R9*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VMAXPD     Y15, Y4, Y8
	VMAXPD     Y8, Y5, Y8
	VMAXPD     Y8, Y6, Y8
	VMAXPD     Y8, Y7, Y8
	VPERMPD    $0xD8, Y8, Y8
	VMOVUPD    Y8, (R12)
	ADDQ       $64, R11
	ADDQ       $32, R12
	DECQ       BX
	JNZ        poolQuadLoop

	LEAQ (SI)(R9*2), SI
	ADDQ R10, DI
	DECQ CX
	JNZ  poolRowLoop

	VZEROUPPER
	RET
