#include "textflag.h"

// func convPointAVX2(sums *[convBlock]float64, in, w *float64, inC, rows, width, inSkipRow, inSkipChan, wSkipRow, wSkipChan int)
//
// One output position of a block of 8 output channels. sums holds the
// block's biases on entry and its 8 outputs on return; Y4 carries
// channels 0-3 and Y5 channels 4-7. in points at the first valid tap of
// input channel 0, w at that tap's 8 packed weights. The loops walk ic,
// then the rows valid taps, then the width valid taps of each row, in
// ascending order; each tap broadcasts its input, multiplies it by the 8
// weights and adds the products to the sums in separate instructions
// (never a fused multiply-add), so each lane rounds exactly as the Go
// loop's serial chain does. After a row, in and w skip the row's invalid
// taps (inSkipRow samples, wSkipRow weights); after a channel, its
// invalid rows (inSkipChan, wSkipChan). inC, rows and width must be at
// least 1.
TEXT ·convPointAVX2(SB), NOSPLIT, $0-80
	MOVQ sums+0(FP), AX
	MOVQ in+8(FP), SI
	MOVQ w+16(FP), DI
	MOVQ inC+24(FP), CX
	MOVQ rows+32(FP), R8
	MOVQ width+40(FP), R9
	MOVQ inSkipRow+48(FP), R10
	MOVQ inSkipChan+56(FP), R11
	MOVQ wSkipRow+64(FP), R12
	MOVQ wSkipChan+72(FP), R13
	SHLQ $3, R10
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $3, R13
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5

chanLoop:
	MOVQ R8, DX

rowLoop:
	MOVQ R9, BX

tapLoop:
	VBROADCASTSD (SI), Y0
	VMULPD       (DI), Y0, Y1
	VMULPD       32(DI), Y0, Y2
	VADDPD       Y1, Y4, Y4
	VADDPD       Y2, Y5, Y5
	ADDQ         $8, SI
	ADDQ         $64, DI
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
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
