package gp

import (
	"math"

	"mlcd/internal/cpufeat"
)

// maternLanes replaces r2[c] with the Matérn 5/2 value fromR2 maps it to
// under signal variance sig2, four values at a time (matern_amd64.s).
// Each lane replays fromR2 and math.Exp's FMA path operation for
// operation, so every value it writes is bit-identical to the scalar
// one. It stops at the first block of four holding a NaN, ±Inf or
// negative r2 or a lane whose exp(−s) is subnormal (r2 above about
// 100463.3), or when fewer than four values remain, and returns how many
// leading values it wrote.
//
//go:noescape
func maternLanes(r2 []float64, sig2 float64) int

// maternArmed is set once, at start-up: the kernel runs only where the
// CPU and OS offer AVX2 and FMA and the self-check matched. Tests flip
// it to exercise the scalar path.
var maternArmed = cpufeat.AVX2 && cpufeat.FMA && maternSelfCheck()

// maternProbe is the self-check's input, every value one the kernel
// maps itself. 0.5625, 4.6875, 6.5 and 11 map to different bits under
// math.Exp's FMA and non-FMA paths, so the check fails, and the kernel
// stays off, whenever math.Exp is not on its FMA path (as under
// GODEBUG=cpu.fma=off or cpu.avx=off). 100463.32577656332 is the largest
// r2 whose exp(−s) is still normal.
var maternProbe = [...]float64{
	0, 5e-324, 0.5625, 1,
	4.6875, 6.5, 11, 100463.32577656332,
}

// maternSelfCheck runs the kernel on maternProbe at σ² = 1 and reports
// whether it wrote every value, each bit for bit equal to fromR2's.
func maternSelfCheck() bool {
	k := NewMatern52(1)
	got := maternProbe
	if maternLanes(got[:], k.sig2) != len(got) {
		return false
	}
	for i, r2 := range maternProbe {
		if math.Float64bits(got[i]) != math.Float64bits(k.fromR2(r2)) {
			return false
		}
	}
	return true
}
