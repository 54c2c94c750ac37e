#include "textflag.h"

// func forwardSolveLanes(l []float64, n int, y []float64, m int)
//
// Solves L·Y = B in place for the n×m row-major y, L the n×n row-major
// l: row i subtracts lᵢₖ·yₖ for k ascending (VMULPD, then VSUBPD) and
// divides by lᵢᵢ last (VDIVPD), four columns per instruction. Each
// column sees ForwardSolveInto's operations in its order.
TEXT ·forwardSolveLanes(SB), NOSPLIT, $0-64
	MOVQ l_base+0(FP), DI
	MOVQ n+24(FP), CX
	MOVQ y_base+32(FP), SI
	MOVQ m+56(FP), DX
	LEAQ (CX*8), R8         // L's row stride
	LEAQ (DX*8), R9         // Y's row stride
	XORQ AX, AX             // i
	MOVQ DI, R10            // L row i
	MOVQ SI, R11            // Y row i

srow:
	CMPQ AX, CX
	JGE  sdone
	XORQ BX, BX             // k
	MOVQ SI, R12            // Y row k

sk:
	CMPQ         BX, AX
	JGE          sdiv
	VBROADCASTSD (R10)(BX*8), Y1 // lᵢₖ
	XORQ         R13, R13        // column

sblock:
	LEAQ    4(R13), R14
	CMPQ    R14, DX
	JGT     stail
	VMOVUPD (R12)(R13*8), Y2
	VMULPD  Y2, Y1, Y2
	VMOVUPD (R11)(R13*8), Y3
	VSUBPD  Y2, Y3, Y3
	VMOVUPD Y3, (R11)(R13*8)
	MOVQ    R14, R13
	JMP     sblock

stail:
	CMPQ   R13, DX
	JGE    snextk
	VMOVSD (R12)(R13*8), X2
	VMULSD X2, X1, X2
	VMOVSD (R11)(R13*8), X3
	VSUBSD X2, X3, X3
	VMOVSD X3, (R11)(R13*8)
	INCQ   R13
	JMP    stail

snextk:
	INCQ BX
	ADDQ R9, R12
	JMP  sk

sdiv:
	VBROADCASTSD (R10)(AX*8), Y1 // lᵢᵢ
	XORQ         R13, R13

dblock:
	LEAQ    4(R13), R14
	CMPQ    R14, DX
	JGT     dtail
	VMOVUPD (R11)(R13*8), Y3
	VDIVPD  Y1, Y3, Y3
	VMOVUPD Y3, (R11)(R13*8)
	MOVQ    R14, R13
	JMP     dblock

dtail:
	CMPQ   R13, DX
	JGE    snexti
	VMOVSD (R11)(R13*8), X3
	VDIVSD X1, X3, X3
	VMOVSD X3, (R11)(R13*8)
	INCQ   R13
	JMP    dtail

snexti:
	INCQ AX
	ADDQ R8, R10
	ADDQ R9, R11
	JMP  srow

sdone:
	VZEROUPPER
	RET

// func factorLanes(l, tris []float64, n int, off *[4]int, shift *[4]float64) int
//
// Factors four systems of order n in lockstep, one per lane. Lane l's
// matrix is the packed lower triangle at tris[off[l]:], row after row
// (row i's entries 0..i at i(i+1)/2). The kernel interleaves the four
// triangles into l, entry e of lane l at 4e + l (a 4×4 transpose per
// block of four entries), adds shift[l] to lane l's diagonal as
// factorScalar adds the shift, and factors l in place, left-looking:
// for each column j the pivot d = aⱼⱼ − Σₖ lⱼₖ·lⱼₖ, then lⱼⱼ = √d, then
// every row below, four rows per block, lᵢⱼ = (aᵢⱼ − Σₖ lᵢₖ·lⱼₖ)/lⱼⱼ,
// k ascending: factorScalar's operations, in its order, per lane and
// entry. Nothing is fused. A lane whose pivot fails d > 0 (d ≤ 0 or
// NaN) keeps running on garbage; the result is the mask of such lanes.
TEXT ·factorLanes(SB), NOSPLIT, $0-80
	MOVQ l_base+0(FP), DI
	MOVQ tris_base+24(FP), SI
	MOVQ n+48(FP), CX
	MOVQ off+56(FP), BX
	MOVQ 0(BX), R9
	LEAQ (SI)(R9*8), R9
	MOVQ 8(BX), R10
	LEAQ (SI)(R10*8), R10
	MOVQ 16(BX), R11
	LEAQ (SI)(R11*8), R11
	MOVQ 24(BX), R12
	LEAQ (SI)(R12*8), R12
	LEAQ 1(CX), R8
	IMULQ CX, R8
	SHRQ $1, R8             // entries per triangle
	XORQ AX, AX             // entry
	MOVQ DI, DX

ilblock:
	LEAQ       4(AX), R13
	CMPQ       R13, R8
	JGT        iltail
	VMOVUPD    (R9)(AX*8), Y0
	VMOVUPD    (R10)(AX*8), Y1
	VMOVUPD    (R11)(AX*8), Y2
	VMOVUPD    (R12)(AX*8), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (DX)
	VMOVUPD    Y1, 32(DX)
	VMOVUPD    Y2, 64(DX)
	VMOVUPD    Y3, 96(DX)
	ADDQ       $128, DX
	MOVQ       R13, AX
	JMP        ilblock

iltail:
	CMPQ        AX, R8
	JGE         ildiag
	VMOVSD      (R9)(AX*8), X0
	VMOVHPD     (R10)(AX*8), X0, X0
	VMOVSD      (R11)(AX*8), X1
	VMOVHPD     (R12)(AX*8), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMOVUPD     Y0, (DX)
	ADDQ        $32, DX
	INCQ        AX
	JMP         iltail

	// aⱼⱼ + shift. Diagonal j+1 lies j+2 entries past diagonal j.
ildiag:
	MOVQ    shift+64(FP), BX
	VMOVUPD (BX), Y14
	XORQ    AX, AX
	MOVQ    DI, DX

ilshift:
	CMPQ    AX, CX
	JGE     lfactor
	VMOVUPD (DX), Y0
	VADDPD  Y14, Y0, Y0
	VMOVUPD Y0, (DX)
	INCQ    AX
	LEAQ    1(AX), R13
	SHLQ    $5, R13
	ADDQ    R13, DX
	JMP     ilshift

lfactor:
	VXORPD Y15, Y15, Y15
	VCMPPD $0, Y15, Y15, Y13 // lanes still positive-definite: all
	XORQ   AX, AX            // j
	MOVQ   DI, R9            // row j

lcol:
	CMPQ    AX, CX
	JGE     ldone
	MOVQ    AX, R10
	SHLQ    $5, R10          // column j's byte offset in a row
	VMOVUPD (R9)(R10*1), Y0  // d
	XORQ    BX, BX           // column k's byte offset

lpivot:
	CMPQ    BX, R10
	JGE     lsqrt
	VMOVUPD (R9)(BX*1), Y1
	VMULPD  Y1, Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ    $32, BX
	JMP     lpivot

lsqrt:
	VCMPPD  $0x1e, Y15, Y0, Y1 // d > 0, false on NaN
	VANDPD  Y1, Y13, Y13
	VSQRTPD Y0, Y12
	VMOVUPD Y12, (R9)(R10*1)
	LEAQ    1(AX), R11       // i
	MOVQ    R11, R12
	SHLQ    $5, R12
	ADDQ    R9, R12          // row i

lrows:
	LEAQ    4(R11), R13
	CMPQ    R13, CX
	JGT     lrow
	LEAQ    1(R11), SI
	SHLQ    $5, SI           // row i's length in bytes, plus one entry
	LEAQ    (R12)(SI*1), R13 // row i+1
	ADDQ    $32, SI
	LEAQ    (R13)(SI*1), R14 // row i+2
	ADDQ    $32, SI
	LEAQ    (R14)(SI*1), DX  // row i+3
	ADDQ    $32, SI
	VMOVUPD (R12)(R10*1), Y0
	VMOVUPD (R13)(R10*1), Y1
	VMOVUPD (R14)(R10*1), Y2
	VMOVUPD (DX)(R10*1), Y3
	XORQ    BX, BX

lblock:
	CMPQ    BX, R10
	JGE     lbdiv
	VMOVUPD (R9)(BX*1), Y4
	VMULPD  (R12)(BX*1), Y4, Y5
	VSUBPD  Y5, Y0, Y0
	VMULPD  (R13)(BX*1), Y4, Y6
	VSUBPD  Y6, Y1, Y1
	VMULPD  (R14)(BX*1), Y4, Y7
	VSUBPD  Y7, Y2, Y2
	VMULPD  (DX)(BX*1), Y4, Y8
	VSUBPD  Y8, Y3, Y3
	ADDQ    $32, BX
	JMP     lblock

lbdiv:
	VDIVPD  Y12, Y0, Y0
	VMOVUPD Y0, (R12)(R10*1)
	VDIVPD  Y12, Y1, Y1
	VMOVUPD Y1, (R13)(R10*1)
	VDIVPD  Y12, Y2, Y2
	VMOVUPD Y2, (R14)(R10*1)
	VDIVPD  Y12, Y3, Y3
	VMOVUPD Y3, (DX)(R10*1)
	LEAQ    (DX)(SI*1), R12  // row i+4
	ADDQ    $4, R11
	JMP     lrows

lrow:
	CMPQ    R11, CX
	JGE     lnext
	VMOVUPD (R12)(R10*1), Y0
	XORQ    BX, BX

lrowk:
	CMPQ    BX, R10
	JGE     lrdiv
	VMOVUPD (R9)(BX*1), Y4
	VMULPD  (R12)(BX*1), Y4, Y5
	VSUBPD  Y5, Y0, Y0
	ADDQ    $32, BX
	JMP     lrowk

lrdiv:
	VDIVPD  Y12, Y0, Y0
	VMOVUPD Y0, (R12)(R10*1)
	INCQ    R11
	MOVQ    R11, SI
	SHLQ    $5, SI
	ADDQ    SI, R12
	JMP     lrow

lnext:
	INCQ AX
	MOVQ AX, SI
	SHLQ $5, SI
	ADDQ SI, R9
	JMP  lcol

ldone:
	VMOVMSKPD Y13, AX
	XORQ      $15, AX
	VZEROUPPER
	MOVQ      AX, ret+72(FP)
	RET

// func solveDotLanes(l []float64, n int, y, w []float64, dst *[4]float64)
//
// For each lane of the interleaved factor l (factorLanes' layout),
// solves L·z = y, then Lᵀ·x = z, both into w (entry i of lane l at
// 4i + l), and writes Σᵢ yᵢ·xᵢ, i ascending from 0, to dst[l]. The
// forward solve runs ForwardSolveInto's row loop, the back solve
// backSolveInto's (xᵢ = (zᵢ − Σₖ lₖᵢ·xₖ)/lᵢᵢ, k ascending from i+1) and
// the sum Dot's, each lane with their operations in their order.
TEXT ·solveDotLanes(SB), NOSPLIT, $0-88
	MOVQ l_base+0(FP), DI
	MOVQ n+24(FP), CX
	MOVQ y_base+32(FP), SI
	MOVQ w_base+56(FP), DX
	XORQ AX, AX             // i
	MOVQ DI, R9             // row i

sfwd:
	CMPQ         AX, CX
	JGE          sback
	VBROADCASTSD (SI)(AX*8), Y0
	MOVQ         AX, R10
	SHLQ         $5, R10
	XORQ         BX, BX

sfk:
	CMPQ    BX, R10
	JGE     sfdiv
	VMOVUPD (R9)(BX*1), Y1
	VMULPD  (DX)(BX*1), Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ    $32, BX
	JMP     sfk

sfdiv:
	VDIVPD  (R9)(R10*1), Y0, Y0
	VMOVUPD Y0, (DX)(R10*1)
	INCQ    AX
	MOVQ    AX, R11
	SHLQ    $5, R11
	ADDQ    R11, R9
	JMP     sfwd

	// R9 is one row past the last; walk back up, row i starting
	// (i+1)·32 bytes before row i+1. Column i of row k+1 lies
	// (k+1)·32 bytes past column i of row k.
sback:
	MOVQ CX, AX

sbi:
	DECQ    AX
	JLT     ssum
	LEAQ    1(AX), R11
	SHLQ    $5, R11
	SUBQ    R11, R9          // row i
	MOVQ    AX, R10
	SHLQ    $5, R10
	VMOVUPD (DX)(R10*1), Y0  // zᵢ
	LEAQ    (R9)(R11*1), R12
	ADDQ    R10, R12         // lₖᵢ, k = i+1
	LEAQ    32(R11), R13     // stride to row k+1
	LEAQ    32(R10), BX      // xₖ
	LEAQ    1(AX), R14       // k

sbk:
	CMPQ    R14, CX
	JGE     sbdiv
	VMOVUPD (R12), Y1
	VMULPD  (DX)(BX*1), Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ    R13, R12
	ADDQ    $32, R13
	ADDQ    $32, BX
	INCQ    R14
	JMP     sbk

sbdiv:
	VDIVPD  (R9)(R10*1), Y0, Y0
	VMOVUPD Y0, (DX)(R10*1)
	JMP     sbi

ssum:
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	XORQ   BX, BX

ssumi:
	CMPQ         AX, CX
	JGE          sout
	VBROADCASTSD (SI)(AX*8), Y1
	VMULPD       (DX)(BX*1), Y1, Y1
	VADDPD       Y1, Y0, Y0
	INCQ         AX
	ADDQ         $32, BX
	JMP          ssumi

sout:
	MOVQ    dst+80(FP), R8
	VMOVUPD Y0, (R8)
	VZEROUPPER
	RET
