#include "textflag.h"

// func choleskyLanes(l, a []float64, n int, shift float64) int
//
// Writes the Cholesky factor of a + shift·I into l, both n×n row-major.
// It copies a's lower triangle into l, adding the shift to the diagonal
// as factorScalar adds it, and factors l in place, right-looking: once
// column j is final, every trailing entry (i, k) with j < k ≤ i
// subtracts lᵢⱼ·lₖⱼ. Across j that is, entry by entry, the k-ascending
// sequence of subtractions, with the same products, that the
// left-looking loop (factorScalar) applies, so every entry keeps its
// bits. Column j's divided values are stashed in row j's strict upper
// triangle, dead until it is zeroed at the end of step j, so four k run
// per VMULPD/VSUBPD pair; the pivot's square root and the divides stay
// scalar. A block may run past k = i into row i's strict upper
// triangle, which is dead at step j too, as long as it ends inside the
// row. Returns n, or the column whose pivot d fails d > 0 (d ≤ 0 or
// NaN).
TEXT ·choleskyLanes(SB), NOSPLIT, $0-72
	MOVQ   l_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   n+48(FP), CX
	LEAQ   (CX*8), R8       // row stride in bytes
	VXORPD Y15, Y15, Y15

	// Copy row i's entries 0..i−1 in blocks of four, then the rest, and
	// put aᵢᵢ + shift on the diagonal.
	XORQ AX, AX             // i
	XORQ R10, R10           // row offset

copyrow:
	CMPQ AX, CX
	JGE  factor
	LEAQ (DI)(R10*1), R11
	LEAQ (SI)(R10*1), R12
	XORQ BX, BX             // k

cblock:
	LEAQ    4(BX), R13
	CMPQ    R13, AX
	JGT     ctail
	VMOVUPD (R12)(BX*8), Y0
	VMOVUPD Y0, (R11)(BX*8)
	MOVQ    R13, BX
	JMP     cblock

ctail:
	CMPQ   BX, AX
	JGE    cdiag
	MOVQ   (R12)(BX*8), R13
	MOVQ   R13, (R11)(BX*8)
	INCQ   BX
	JMP    ctail

cdiag:
	VMOVSD (R12)(AX*8), X0
	VADDSD shift+56(FP), X0, X0
	VMOVSD X0, (R11)(AX*8)
	INCQ   AX
	ADDQ   R8, R10
	JMP    copyrow

factor:
	XORQ AX, AX             // j
	MOVQ DI, R9             // row j

col:
	CMPQ     AX, CX
	JGE      done
	VMOVSD   (R9)(AX*8), X0
	VUCOMISD X15, X0
	JBE      done           // d ≤ 0 or unordered
	VSQRTSD  X0, X0, X0
	VMOVSD   X0, (R9)(AX*8)

	// lᵢⱼ = wᵢⱼ/lⱼⱼ for i > j, written in place and to row j's stash.
	LEAQ 1(AX), R10         // i
	LEAQ (R9)(R8*1), R11    // row i

div:
	CMPQ   R10, CX
	JGE    update
	VMOVSD (R11)(AX*8), X1
	VDIVSD X0, X1, X1
	VMOVSD X1, (R11)(AX*8)
	VMOVSD X1, (R9)(R10*8)
	INCQ   R10
	ADDQ   R8, R11
	JMP    div

update:
	LEAQ 1(AX), R10
	LEAQ (R9)(R8*1), R11

row:
	CMPQ         R10, CX
	JGE          zero
	VBROADCASTSD (R9)(R10*8), Y1 // lᵢⱼ
	LEAQ         1(AX), R12      // k

block:
	CMPQ    R12, R10
	JGT     nextrow
	LEAQ    4(R12), R13
	CMPQ    R13, CX
	JGT     tail
	VMOVUPD (R9)(R12*8), Y2
	VMULPD  Y2, Y1, Y2           // lᵢⱼ·lₖⱼ
	VMOVUPD (R11)(R12*8), Y3
	VSUBPD  Y2, Y3, Y3
	VMOVUPD Y3, (R11)(R12*8)
	MOVQ    R13, R12
	JMP     block

tail:
	CMPQ   R12, R10
	JGT    nextrow
	VMOVSD (R9)(R12*8), X2
	VMULSD X2, X1, X2
	VMOVSD (R11)(R12*8), X3
	VSUBSD X2, X3, X3
	VMOVSD X3, (R11)(R12*8)
	INCQ   R12
	JMP    tail

nextrow:
	INCQ R10
	ADDQ R8, R11
	JMP  row

	// Row j's stash is dead: zero it, as the factor's upper triangle.
zero:
	LEAQ 1(AX), R12

zblock:
	LEAQ    4(R12), R13
	CMPQ    R13, CX
	JGT     ztail
	VMOVUPD Y15, (R9)(R12*8)
	MOVQ    R13, R12
	JMP     zblock

ztail:
	CMPQ   R12, CX
	JGE    nextcol
	VMOVSD X15, (R9)(R12*8)
	INCQ   R12
	JMP    ztail

nextcol:
	INCQ AX
	ADDQ R8, R9
	JMP  col

done:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

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
