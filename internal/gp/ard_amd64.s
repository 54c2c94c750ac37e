#include "textflag.h"

// The ARD squared distance, four pairs per instruction. Each lane runs
// sqDistDiff's sequence for its pair: s = 0, then for every dimension k
// in ascending order d = v/ℓₖ (VDIVPD, correctly rounded per lane) and
// s = s + d·d (VMULPD, then VADDPD). Nothing is fused. Lane c reads
// dimension k at src + (c·dim + k)·8: the pair-major layout of the
// difference cache and of a row-major query block alike, assembled from
// four scalar loads.

// func sqDistDiffLanes(dst, diffs, lens []float64) int
TEXT ·sqDistDiffLanes(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ diffs_base+24(FP), SI
	MOVQ lens_base+48(FP), DX
	MOVQ lens_len+56(FP), R8
	LEAQ (R8*8), R9   // one pair's stride in bytes
	LEAQ (R9)(R9*2), R10 // three strides
	XORQ AX, AX

dblock:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  ddone

	VXORPD Y3, Y3, Y3 // s = 0
	MOVQ   SI, R11
	XORQ   R12, R12

ddim:
	CMPQ R12, R8
	JGE  dstore

	VMOVSD       (R11), X0
	VMOVHPD      (R11)(R9*1), X0, X0
	VMOVSD       (R11)(R9*2), X1
	VMOVHPD      (R11)(R10*1), X1, X1
	VINSERTF128  $1, X1, Y0, Y0
	VBROADCASTSD (DX)(R12*8), Y2
	VDIVPD       Y2, Y0, Y0 // d = v/ℓₖ
	VMULPD       Y0, Y0, Y0 // d·d
	VADDPD       Y0, Y3, Y3 // s + d·d
	ADDQ         $8, R11
	INCQ         R12
	JMP          ddim

dstore:
	// A NaN sum hands this block and the rest to the scalar loop, which
	// fixes the NaN's payload by its own operand order.
	VCMPPD    $3, Y3, Y3, Y4 // unordered
	VMOVMSKPD Y4, R13
	TESTQ     R13, R13
	JNZ       ddone
	VMOVUPD   Y3, (DI)(AX*8)
	LEAQ      (SI)(R9*4), SI
	MOVQ      BX, AX
	JMP       dblock

ddone:
	VZEROUPPER
	MOVQ AX, ret+72(FP)
	RET

// func sqDistRowLanes(dst, x, qs, lens []float64) int
//
// As sqDistDiffLanes, with each lane forming v = xₖ − qₖ first (VSUBPD,
// the scalar loop's operand order).
TEXT ·sqDistRowLanes(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), R14
	MOVQ qs_base+48(FP), SI
	MOVQ lens_base+72(FP), DX
	MOVQ lens_len+80(FP), R8
	LEAQ (R8*8), R9
	LEAQ (R9)(R9*2), R10
	XORQ AX, AX

rblock:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  rdone

	VXORPD Y3, Y3, Y3
	MOVQ   SI, R11
	XORQ   R12, R12

rdim:
	CMPQ R12, R8
	JGE  rstore

	VMOVSD       (R11), X0
	VMOVHPD      (R11)(R9*1), X0, X0
	VMOVSD       (R11)(R9*2), X1
	VMOVHPD      (R11)(R10*1), X1, X1
	VINSERTF128  $1, X1, Y0, Y0
	VBROADCASTSD (R14)(R12*8), Y5
	VSUBPD       Y0, Y5, Y0 // v = xₖ − qₖ
	VBROADCASTSD (DX)(R12*8), Y2
	VDIVPD       Y2, Y0, Y0
	VMULPD       Y0, Y0, Y0
	VADDPD       Y0, Y3, Y3
	ADDQ         $8, R11
	INCQ         R12
	JMP          rdim

rstore:
	VCMPPD    $3, Y3, Y3, Y4
	VMOVMSKPD Y4, R13
	TESTQ     R13, R13
	JNZ       rdone
	VMOVUPD   Y3, (DI)(AX*8)
	LEAQ      (SI)(R9*4), SI
	MOVQ      BX, AX
	JMP       rblock

rdone:
	VZEROUPPER
	MOVQ AX, ret+96(FP)
	RET
