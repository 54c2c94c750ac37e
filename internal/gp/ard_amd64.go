package gp

import (
	"math"

	"mlcd/internal/cpufeat"
)

// sqDistDiffLanes fills dst[c] with sqDistDiff(diffs[c·dim:(c+1)·dim],
// lens), dim = len(lens), four pairs at a time (ard_amd64.s). Each lane
// replays sqDistDiff's operations in its order, so every value it writes
// is bit-identical to the scalar one. It stops at the first block of
// four whose sums hold a NaN, or when fewer than four pairs remain, and
// returns how many leading values it wrote.
//
//go:noescape
func sqDistDiffLanes(dst, diffs, lens []float64) int

// sqDistRowLanes is sqDistDiffLanes for a row-major query block: dst[c]
// is sqDist(x, qs[c·dim:(c+1)·dim], lens).
//
//go:noescape
func sqDistRowLanes(dst, x, qs, lens []float64) int

// ardArmed is set once, at start-up: the distance kernel runs only where
// the CPU and OS offer AVX2 and the self-check matched. Tests flip it to
// exercise the scalar path.
var ardArmed = cpufeat.AVX2 && ardSelfCheck()

// ardProbe is the self-check's input: a point, eight queries (two
// blocks) and lengthscales at both ends of the kernel's box and between.
// It holds zero and −0 differences, subnormal ones, one overflowing
// square, and sums that round at every step.
var ardProbe = struct {
	x    [4]float64
	qs   [8][4]float64
	lens [4]float64
}{
	x: [4]float64{1.0 / 3, 7, 0, 0.5},
	qs: [8][4]float64{
		{0.7, 7, 5e-324, -2.75},
		{-1.1, 1e300, math.Copysign(0, -1), 0.5},
		{2.9, 6.5, 1e-310, 1.25},
		{1e-3, 7.3, 0, -0.1},
		{0.45, -1.25, -5e-324, 3.7},
		{-0.3, 8, 2.5e-308, 0.5},
		{1.5, 0.1, 0, -5.5},
		{0.33, 6.9, 7e-300, 2.2},
	},
	lens: [4]float64{0.3, 4, 1.7, 0.05},
}

// ardSelfCheck runs both kernels on ardProbe and reports whether they
// wrote every value, each bit for bit equal to the scalar loop's.
func ardSelfCheck() bool {
	p := &ardProbe
	const dim, n = len(p.x), len(p.qs)
	qs := make([]float64, 0, n*dim)
	for _, q := range p.qs {
		qs = append(qs, q[:]...)
	}
	diffs := make([]float64, len(qs))
	for i, q := range qs {
		diffs[i] = p.x[i%dim] - q
	}
	got, want := make([]float64, n), make([]float64, n)
	if sqDistDiffLanes(got, diffs, p.lens[:]) != n {
		return false
	}
	for c := range want {
		want[c] = sqDistDiff(diffs[c*dim:c*dim+dim], p.lens[:])
	}
	if !sameBits(got, want) {
		return false
	}
	if sqDistRowLanes(got, p.x[:], qs, p.lens[:]) != n {
		return false
	}
	for c := range want {
		want[c] = sqDist(p.x[:], qs[c*dim:c*dim+dim], p.lens[:])
	}
	return sameBits(got, want)
}
