// Package gp implements Gaussian-process regression from scratch: the
// covariance kernels, the exact posterior via Cholesky factorization, and
// maximum-marginal-likelihood hyperparameter fitting. It is the surrogate
// model behind every Bayesian-optimization searcher in this repository
// (ConvBO, CherryPick, HeterBO), following the paper's choice of a
// Gaussian-process prior (§III-C).
package gp

import (
	"fmt"
	"math"

	"mlcd/internal/optim"
)

// Kernel is a positive-definite covariance function over feature
// vectors: the squared-exponential (SE) or the Matérn 5/2 kernel, both
// stationary with ARD lengthscales. Hyperparameters are exposed in log
// space so that box-constrained optimizers can search them freely.
//
// The GP never calls Eval: it evaluates from coordinate differences
// (EvalDiff) and through the unexported batch forms, which replay Eval's
// per-pair operation sequence (sqDist's subtract/divide/square/
// accumulate, then the kernel's map of the squared distance) a whole
// row or triangle per devirtualized call, so every value is Eval's to
// the bit. Because the batch forms are unexported, SE and Matérn 5/2 are
// the whole family: code outside this package can embed one of them,
// not write a new kernel.
type Kernel interface {
	// Eval returns k(x, y): the per-pair reference the batch forms
	// reproduce bit for bit.
	Eval(x, y []float64) float64
	// EvalDiff returns k(x, y) given diff[i] = x[i] − y[i], with exactly
	// the floating-point operations Eval(x, y) would execute, so the
	// GP's cache of raw pairwise differences reproduces Eval while
	// touching no feature vectors.
	EvalDiff(diff []float64) float64
	// Params returns the log-space hyperparameters.
	Params() []float64
	// SetParams installs log-space hyperparameters (len must match Params).
	SetParams(p []float64)
	// ParamBounds returns the log-space search box for Params.
	ParamBounds() optim.Bounds
	// Clone returns an independent copy.
	Clone() Kernel
	// Name identifies the kernel family.
	Name() string

	// evalRowInto fills dst[c] = k(x, qs[c·dim : (c+1)·dim]) for the
	// m = len(dst) queries packed row-major in qs (dim = len(x)).
	evalRowInto(dst, x, qs []float64)
	// evalDiffBatch fills dst[c] = EvalDiff(diffs[c·dim : (c+1)·dim]).
	evalDiffBatch(dst, diffs []float64)
	// appendParams appends the log-space hyperparameters to dst without
	// allocating (the alloc-free counterpart of Params).
	appendParams(dst []float64) []float64
}

// sqDist returns the ARD-scaled squared distance Σ ((x_i−y_i)/ℓ_i)².
func sqDist(x, y, lengthscales []float64) float64 {
	if len(x) != len(y) || len(x) != len(lengthscales) {
		panic(fmt.Sprintf("gp: dimension mismatch |x|=%d |y|=%d |ℓ|=%d", len(x), len(y), len(lengthscales)))
	}
	var s float64
	for i := range x {
		d := (x[i] - y[i]) / lengthscales[i]
		s += d * d
	}
	return s
}

// sqDistDiff is sqDist evaluated from a precomputed difference vector.
// Same operations in the same order: diff[i] = x[i]−y[i] exactly, and
// (−d)·(−d) ≡ d·d in IEEE arithmetic, so the sign of the stored
// difference is irrelevant.
func sqDistDiff(diff, lengthscales []float64) float64 {
	if len(diff) != len(lengthscales) {
		panic(fmt.Sprintf("gp: dimension mismatch |diff|=%d |ℓ|=%d", len(diff), len(lengthscales)))
	}
	var s float64
	for i := range diff {
		d := diff[i] / lengthscales[i]
		s += d * d
	}
	return s
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// value by value (the kernels' self-checks compare with it).
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ard holds the shared state of the stationary ARD kernels below:
// a signal variance σ² and one lengthscale per input dimension. The
// exponentiated parameters are cached so the hot kernel-matrix loops pay
// for exp() once per SetParams instead of once per pair.
type ard struct {
	logSigma2 float64
	logLen    []float64
	sig2      float64   // exp(logSigma2), kept in sync by setParams
	lens      []float64 // exp(logLen), kept in sync by setParams
}

func newARD(dim int) ard {
	a := ard{logSigma2: 0, sig2: 1, logLen: make([]float64, dim), lens: make([]float64, dim)}
	for i := range a.lens {
		a.lens[i] = 1
	}
	return a
}

// lengthscales returns the cached exp(logLen); callers must not mutate it.
func (a *ard) lengthscales() []float64 { return a.lens }

func (a *ard) sigma2() float64 { return a.sig2 }

func (a *ard) params() []float64 {
	p := make([]float64, 1+len(a.logLen))
	p[0] = a.logSigma2
	copy(p[1:], a.logLen)
	return p
}

func (a *ard) setParams(p []float64) {
	if len(p) != 1+len(a.logLen) {
		panic(fmt.Sprintf("gp: got %d params, want %d", len(p), 1+len(a.logLen)))
	}
	a.logSigma2 = p[0]
	a.sig2 = math.Exp(a.logSigma2)
	copy(a.logLen, p[1:])
	for i, v := range a.logLen {
		a.lens[i] = math.Exp(v)
	}
}

func (a *ard) appendParams(dst []float64) []float64 {
	dst = append(dst, a.logSigma2)
	return append(dst, a.logLen...)
}

// sqDistRow fills dst[c] with sqDist(x, qs[c·dim:(c+1)·dim], lens) for a
// row-major block of queries: per query the exact subtract/divide/
// square/accumulate sequence of sqDist, with lens hoisted once. Where
// the four-lane kernel is armed (ard_amd64.go) it fills the leading
// blocks of four, and the loop below the rest; both give the same bits.
func (a *ard) sqDistRow(dst, x, qs []float64) {
	dim := len(a.lens)
	if len(x) != dim || len(qs) != len(dst)*dim {
		panic(fmt.Sprintf("gp: sqDistRow dims |x|=%d |qs|=%d |dst|=%d |ℓ|=%d", len(x), len(qs), len(dst), dim))
	}
	lens := a.lens
	c := 0
	if ardArmed {
		c = sqDistRowLanes(dst, x, qs, lens)
	}
	for ; c < len(dst); c++ {
		q := qs[c*dim : c*dim+dim]
		var s float64
		for k := range x {
			d := (x[k] - q[k]) / lens[k]
			s += d * d
		}
		dst[c] = s
	}
}

// sqDistBatch fills dst[c] with sqDistDiff(diffs[c·dim:(c+1)·dim], lens),
// the leading blocks of four through the armed kernel as in sqDistRow.
func (a *ard) sqDistBatch(dst, diffs []float64) {
	dim := len(a.lens)
	if len(diffs) != len(dst)*dim {
		panic(fmt.Sprintf("gp: sqDistBatch dims |diffs|=%d |dst|=%d |ℓ|=%d", len(diffs), len(dst), dim))
	}
	lens := a.lens
	c := 0
	if ardArmed {
		c = sqDistDiffLanes(dst, diffs, lens)
	}
	for ; c < len(dst); c++ {
		df := diffs[c*dim : c*dim+dim]
		var s float64
		for k, v := range df {
			d := v / lens[k]
			s += d * d
		}
		dst[c] = s
	}
}

func (a *ard) bounds() optim.Bounds {
	n := 1 + len(a.logLen)
	lo := make([]float64, n)
	hi := make([]float64, n)
	lo[0], hi[0] = math.Log(1e-4), math.Log(1e4) // signal variance
	for i := 1; i < n; i++ {
		// Inputs here are log2-scaled hardware features spanning ≈7
		// units. Capping lengthscales at about half that range keeps a
		// dimension with no variation in the training set (e.g. node
		// count after a single-node-per-type init sweep) from being
		// assigned a near-infinite lengthscale — which would make the
		// posterior overconfident along exactly the axis the search
		// still needs to explore.
		lo[i], hi[i] = math.Log(5e-2), math.Log(4.0)
	}
	return optim.Bounds{Lo: lo, Hi: hi}
}

func (a *ard) clone() ard {
	return ard{
		logSigma2: a.logSigma2,
		sig2:      a.sig2,
		logLen:    append([]float64(nil), a.logLen...),
		lens:      append([]float64(nil), a.lens...),
	}
}

// SE is the squared-exponential (RBF) kernel with ARD lengthscales:
// k(x,y) = σ² exp(−½ · d²(x,y)).
type SE struct{ ard }

// NewSE returns a unit-variance, unit-lengthscale SE kernel over dim inputs.
func NewSE(dim int) *SE { return &SE{newARD(dim)} }

// fromR2 maps one ARD squared distance to the kernel value. The r2 == 0
// short-circuit is exact, not approximate: σ²·exp(−0.5·0) multiplies σ²
// by exactly 1.0, so skipping the exp on the kernel-matrix diagonal (and
// any coincident pair) returns the identical bits at a fraction of the
// cost.
func (k *SE) fromR2(r2 float64) float64 {
	if r2 == 0 {
		return k.sig2
	}
	return k.sig2 * math.Exp(-0.5*r2)
}

// Eval implements Kernel.
func (k *SE) Eval(x, y []float64) float64 {
	return k.fromR2(sqDist(x, y, k.lengthscales()))
}

// EvalDiff returns k(x, y) given diff[i] = x[i] − y[i].
func (k *SE) EvalDiff(diff []float64) float64 {
	return k.fromR2(sqDistDiff(diff, k.lengthscales()))
}

func (k *SE) evalRowInto(dst, x, qs []float64) {
	k.sqDistRow(dst, x, qs)
	for c, r2 := range dst {
		dst[c] = k.fromR2(r2)
	}
}

func (k *SE) evalDiffBatch(dst, diffs []float64) {
	k.sqDistBatch(dst, diffs)
	for c, r2 := range dst {
		dst[c] = k.fromR2(r2)
	}
}

// Params implements Kernel.
func (k *SE) Params() []float64 { return k.params() }

// SetParams implements Kernel.
func (k *SE) SetParams(p []float64) { k.setParams(p) }

// ParamBounds implements Kernel.
func (k *SE) ParamBounds() optim.Bounds { return k.bounds() }

// Clone implements Kernel.
func (k *SE) Clone() Kernel { return &SE{k.ard.clone()} }

// Name implements Kernel.
func (k *SE) Name() string { return "se" }

// Matern52 is the Matérn ν=5/2 kernel with ARD lengthscales:
// k(r) = σ² (1 + √5 r + 5r²/3) exp(−√5 r). This is the default surrogate
// kernel, as in CherryPick and most BO practice: it models functions that
// are twice differentiable but not infinitely smooth, which matches
// measured training-throughput surfaces well.
type Matern52 struct{ ard }

// NewMatern52 returns a unit Matérn 5/2 kernel over dim inputs.
func NewMatern52(dim int) *Matern52 { return &Matern52{newARD(dim)} }

// fromR2 maps one ARD squared distance to the kernel value. At r2 == 0
// the formula collapses to σ²·(1+0+0)·exp(−0) = σ²·1·1 exactly, so the
// short-circuit returns identical bits while skipping the sqrt and exp.
func (k *Matern52) fromR2(r2 float64) float64 {
	if r2 == 0 {
		return k.sig2
	}
	r := math.Sqrt(r2)
	s := math.Sqrt(5) * r
	return k.sig2 * (1 + s + 5*r2/3) * math.Exp(-s)
}

// Eval implements Kernel.
func (k *Matern52) Eval(x, y []float64) float64 {
	return k.fromR2(sqDist(x, y, k.lengthscales()))
}

// EvalDiff returns k(x, y) given diff[i] = x[i] − y[i].
func (k *Matern52) EvalDiff(diff []float64) float64 {
	return k.fromR2(sqDistDiff(diff, k.lengthscales()))
}

// fromR2Batch replaces each r2s[c] with fromR2(r2s[c]). Where the
// four-lane kernel is armed (amd64 with AVX2 and FMA, see
// matern_amd64.go) it maps every block of four it can and hands the
// rest, blocks it declines and the tail of fewer than four, to fromR2.
// Both paths produce the same bits.
func (k *Matern52) fromR2Batch(r2s []float64) {
	i := 0
	if maternArmed {
		for {
			i += maternLanes(r2s[i:], k.sig2)
			if len(r2s)-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				r2s[i] = k.fromR2(r2s[i])
			}
		}
	}
	for ; i < len(r2s); i++ {
		r2s[i] = k.fromR2(r2s[i])
	}
}

func (k *Matern52) evalRowInto(dst, x, qs []float64) {
	k.sqDistRow(dst, x, qs)
	k.fromR2Batch(dst)
}

func (k *Matern52) evalDiffBatch(dst, diffs []float64) {
	k.sqDistBatch(dst, diffs)
	k.fromR2Batch(dst)
}

// Params implements Kernel.
func (k *Matern52) Params() []float64 { return k.params() }

// SetParams implements Kernel.
func (k *Matern52) SetParams(p []float64) { k.setParams(p) }

// ParamBounds implements Kernel.
func (k *Matern52) ParamBounds() optim.Bounds { return k.bounds() }

// Clone implements Kernel.
func (k *Matern52) Clone() Kernel { return &Matern52{k.ard.clone()} }

// Name implements Kernel.
func (k *Matern52) Name() string { return "matern52" }
