#include "textflag.h"

// Four copies of one float64: the shape a 256-bit memory operand reads.
#define LANES(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// fromR2's constants. sqrt5 is the bit pattern of math.Sqrt(5).
LANES(m52sqrt5, $0x4001e3779b97f4a8)
LANES(m52one, $1.0)
LANES(m52five, $5.0)
LANES(m52three, $3.0)
LANES(m52sign, $0x8000000000000000)

// math.Exp's constants, spelled exactly as $GOROOT/src/math/exp_amd64.s
// spells them, so the assembler rounds them to the same bits.
LANES(m52log2e, $1.4426950408889634073599246810018920)
LANES(m52ln2u, $0.69314718055966295651160180568695068359375)
LANES(m52ln2l, $0.28235290563031577122588448175013436025525412068e-12)
LANES(m52sixteenth, $0.0625)
LANES(m52c8, $2.4801587301587301587e-5)
LANES(m52c7, $1.9841269841269841270e-4)
LANES(m52c6, $1.3888888888888888889e-3)
LANES(m52c5, $8.3333333333333333333e-3)
LANES(m52c4, $4.1666666666666666667e-2)
LANES(m52c3, $1.6666666666666666667e-1)
LANES(m52half, $0.5)
LANES(m52two, $2.0)

// The exponent bias, four int32 lanes.
DATA m52bias<>+0(SB)/4, $1023
DATA m52bias<>+4(SB)/4, $1023
DATA m52bias<>+8(SB)/4, $1023
DATA m52bias<>+12(SB)/4, $1023
GLOBL m52bias<>(SB), RODATA|NOPTR, $16

// func maternLanes(r2 []float64, sig2 float64) int
//
// Each block of four replays, per lane, Matern52.fromR2's operations and
// then the avxfma branch of math.Exp (exp_amd64.s) in its order: no
// fused operation except the three math.Exp itself fuses.
TEXT ·maternLanes(SB), NOSPLIT, $0-40
	MOVQ         r2_base+0(FP), DI
	MOVQ         r2_len+8(FP), CX
	VBROADCASTSD sig2+24(FP), Y15
	VPXOR        X14, X14, X14
	XORQ         AX, AX

loop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  done

	VMOVUPD (DI)(AX*8), Y0          // r2
	VSQRTPD Y0, Y1                  // r = √r2
	VMULPD  m52sqrt5<>(SB), Y1, Y1  // s = √5·r
	VXORPD  m52sign<>(SB), Y1, Y2   // x = −s

	// k = round(log2e·x), under the default MXCSR as CVTSD2SL rounds.
	// A NaN, ±Inf or negative r2 converts to the integer indefinite
	// −2³¹, so the one test below also sends those blocks to the scalar
	// path, with any lane whose 2^k would be subnormal (k+1023 ≤ 0).
	VMULPD     m52log2e<>(SB), Y2, Y3
	VCVTPD2DQY Y3, X3
	VPADDD     m52bias<>(SB), X3, X4 // k+1023
	VPCMPGTD   X14, X4, X5
	VMOVMSKPS  X5, BX
	CMPL       BX, $15
	JNE        done

	// Reduce: x −= k·ln2u; x −= k·ln2l (both fused); x ·= 1/16.
	VCVTDQ2PD    X3, Y3
	VFNMADD231PD m52ln2u<>(SB), Y3, Y2
	VFNMADD231PD m52ln2l<>(SB), Y3, Y2
	VMULPD       m52sixteenth<>(SB), Y2, Y2

	// Taylor polynomial p = ((c8·x + c7)·x + …)·x + 1, fused per step.
	VMOVUPD     m52c8<>(SB), Y3
	VFMADD213PD m52c7<>(SB), Y2, Y3
	VFMADD213PD m52c6<>(SB), Y2, Y3
	VFMADD213PD m52c5<>(SB), Y2, Y3
	VFMADD213PD m52c4<>(SB), Y2, Y3
	VFMADD213PD m52c3<>(SB), Y2, Y3
	VFMADD213PD m52half<>(SB), Y2, Y3
	VFMADD213PD m52one<>(SB), Y2, Y3
	VMULPD      Y3, Y2, Y2 // x·p

	// Undo the 1/16 by four x·(x+2) steps, the last fused with the +1.
	VADDPD      m52two<>(SB), Y2, Y3
	VMULPD      Y3, Y2, Y2
	VADDPD      m52two<>(SB), Y2, Y3
	VMULPD      Y3, Y2, Y2
	VADDPD      m52two<>(SB), Y2, Y3
	VMULPD      Y3, Y2, Y2
	VADDPD      m52two<>(SB), Y2, Y3
	VFMADD213PD m52one<>(SB), Y3, Y2

	// exp(−s) = fr·2^k, 2^k built from the biased exponent's bits.
	VPMOVZXDQ X4, Y4
	VPSLLQ    $52, Y4, Y4
	VMULPD    Y4, Y2, Y2

	// σ²·((1+s) + (5·r2)/3)·exp(−s), left to right as fromR2 evaluates.
	VADDPD  m52one<>(SB), Y1, Y1
	VMULPD  m52five<>(SB), Y0, Y0
	VDIVPD  m52three<>(SB), Y0, Y0
	VADDPD  Y0, Y1, Y1
	VMULPD  Y1, Y15, Y1
	VMULPD  Y2, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)

	MOVQ DX, AX
	JMP  loop

done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET
