#include "textflag.h"

// func squares8AVX2(key, rows, out *float64, width, blocks int)
//
// Squared Euclidean distances from key to blocks of 8 rows, width floats
// each, laid one after another: out[r] receives row r's sum over the
// first width&^3 axes. Y0 sums rows 0-3 of a block and Y1 rows 4-7, one
// row per lane. Each step takes 4 axes: it subtracts each row's 4
// coordinates from key's (key first, as SquaredEuclidean does) and
// squares them, then transposes each 4×4 tile of squares so that a
// register holds one axis of 4 rows, and adds the 4 axes to the sums in
// ascending order. Every multiply and add is its own instruction (never
// a fused multiply-add), so each lane rounds exactly as
// SquaredEuclidean's serial chain does. width must be at least 4 and
// blocks at least 1.
TEXT ·squares8AVX2(SB), NOSPLIT, $0-40
	MOVQ key+0(FP), AX
	MOVQ rows+8(FP), R13
	MOVQ out+16(FP), DI
	MOVQ width+24(FP), R9
	MOVQ blocks+32(FP), R8
	MOVQ R9, DX
	SHRQ $2, DX
	SHLQ $3, R9

blockLoop:
	MOVQ   AX, BX
	MOVQ   R13, SI
	LEAQ   (R13)(R9*2), R10
	LEAQ   (R10)(R9*2), R11
	LEAQ   (R11)(R9*2), R12
	MOVQ   DX, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

stepLoop:
	VMOVUPD    (BX), Y2
	VSUBPD     (SI), Y2, Y3
	VSUBPD     (SI)(R9*1), Y2, Y4
	VSUBPD     (R10), Y2, Y5
	VSUBPD     (R10)(R9*1), Y2, Y6
	VMULPD     Y3, Y3, Y3
	VMULPD     Y4, Y4, Y4
	VMULPD     Y5, Y5, Y5
	VMULPD     Y6, Y6, Y6
	VUNPCKLPD  Y4, Y3, Y7
	VUNPCKHPD  Y4, Y3, Y8
	VUNPCKLPD  Y6, Y5, Y9
	VUNPCKHPD  Y6, Y5, Y10
	VPERM2F128 $0x20, Y9, Y7, Y3
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x31, Y9, Y7, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VADDPD     Y3, Y0, Y0
	VADDPD     Y4, Y0, Y0
	VADDPD     Y5, Y0, Y0
	VADDPD     Y6, Y0, Y0
	VSUBPD     (R11), Y2, Y3
	VSUBPD     (R11)(R9*1), Y2, Y4
	VSUBPD     (R12), Y2, Y5
	VSUBPD     (R12)(R9*1), Y2, Y6
	VMULPD     Y3, Y3, Y3
	VMULPD     Y4, Y4, Y4
	VMULPD     Y5, Y5, Y5
	VMULPD     Y6, Y6, Y6
	VUNPCKLPD  Y4, Y3, Y7
	VUNPCKHPD  Y4, Y3, Y8
	VUNPCKLPD  Y6, Y5, Y9
	VUNPCKHPD  Y6, Y5, Y10
	VPERM2F128 $0x20, Y9, Y7, Y3
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x31, Y9, Y7, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VADDPD     Y3, Y1, Y1
	VADDPD     Y4, Y1, Y1
	VADDPD     Y5, Y1, Y1
	VADDPD     Y6, Y1, Y1
	ADDQ       $32, BX
	ADDQ       $32, SI
	ADDQ       $32, R10
	ADDQ       $32, R11
	ADDQ       $32, R12
	DECQ       CX
	JNZ        stepLoop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	LEAQ    (R13)(R9*8), R13
	DECQ    R8
	JNZ     blockLoop

	VZEROUPPER
	RET
