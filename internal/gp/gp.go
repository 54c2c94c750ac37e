package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mlcd/internal/mat"
	"mlcd/internal/optim"
)

// ErrNoData is returned when prediction or likelihood evaluation is
// attempted before Fit has seen any observations.
var ErrNoData = errors.New("gp: no observations fitted")

// Mean is an optional nonzero prior mean function for the GP, in raw
// target units. MeanVar returns the prior mean m(x) and an additional
// prior variance v(x) ≥ 0 expressing how much the mean itself is
// trusted at x: the GP fits residuals y − m(x) and reports predictions
// as posterior-over-residuals + m(x), with v(x) added to the posterior
// variance. A zero v means "the mean is exact there" and leaves the
// posterior spread untouched. Implementations must be pure functions of
// x — the GP may evaluate them at any time, from multiple goroutines.
type Mean interface {
	MeanVar(x []float64) (mu, v float64)
}

// GP is an exact Gaussian-process regressor with fixed Gaussian
// observation noise. Targets are internally standardized (zero mean,
// unit variance) so kernel hyperparameter boxes stay scale-free.
//
// The regressor keeps three pieces of derived state to make refitting
// cheap without changing any numerical result:
//
//   - a pairwise-difference cache for the built-in stationary kernels
//     (SE, Matérn 5/2), so kernel-matrix rebuilds during FitMLE are pure
//     O(n²·dim) flops with no feature-vector traversals;
//   - scratch buffers (kernel matrix, double-buffered Cholesky, alpha) so
//     the refit loop allocates nothing after warm-up;
//   - the jitter and hyperparameters of the current factorization, so a
//     Fit that appends exactly one observation under unchanged
//     hyperparameters extends the Cholesky factor in O(n²) instead of
//     refactoring in O(n³).
type GP struct {
	kernel   Kernel
	batchk   batchStationary // non-nil iff kernel supports row-batched evaluation (diff-cache path)
	logNoise float64         // log of the noise *variance* in standardized units

	x      [][]float64
	y      []float64 // raw targets
	yStd   []float64 // standardized targets (of residuals when mean is set)
	yMean  float64
	yScale float64

	// mean, when non-nil, is the prior mean function: the GP conditions
	// on residuals y − mean(x) and adds the mean back at prediction. A
	// nil mean is the hard-coded zero mean — that path's arithmetic is
	// untouched, so mean-free fits and predictions stay bit-identical to
	// a build without this field.
	mean    Mean
	priorMu []float64 // mean(x_i) per observation, synced by standardize

	chol  *mat.Cholesky
	alpha []float64 // K⁻¹ y (standardized)

	diffs    diffCache     // raw pairwise differences (batch kernels only)
	kmat     *mat.Dense    // scratch: kernel matrix without the noise diagonal
	spare    *mat.Cholesky // double buffer: CholeskyInto target, swapped with chol
	rowBuf   []float64     // scratch: bordering row for Cholesky.Extend
	paramBuf []float64     // scratch: packed params for paramsUnchanged

	factorN      int       // observation count the current factor covers (-1 = stale)
	factorJitter float64   // diagonal jitter the current factor succeeded at
	factorParams []float64 // kernel params + logNoise at factorization time
}

// New returns a GP using kernel k and observation-noise variance noise
// (in standardized target units; 1e-6…1e-2 is typical).
func New(k Kernel, noise float64) *GP {
	if noise <= 0 {
		noise = 1e-6
	}
	g := &GP{kernel: k, logNoise: math.Log(noise), factorN: -1}
	g.batchk, _ = k.(batchStationary)
	return g
}

// Kernel returns the GP's kernel (shared, not a copy).
func (g *GP) Kernel() Kernel { return g.kernel }

// Noise returns the observation-noise variance in standardized units.
func (g *GP) Noise() float64 { return math.Exp(g.logNoise) }

// N returns the number of fitted observations.
func (g *GP) N() int { return len(g.y) }

// SetMean installs a prior mean function (nil restores the zero mean).
// If the GP already holds observations, the residual targets and alpha
// are recomputed in place: the Cholesky factor depends only on the
// inputs and hyperparameters, so it survives a mean change and only the
// solve against the new residuals is repeated.
func (g *GP) SetMean(m Mean) {
	if g.mean == nil && m == nil {
		return
	}
	g.mean = m
	if len(g.y) == 0 {
		return
	}
	g.standardize()
	if g.chol != nil && g.factorN == len(g.y) {
		g.solveAlpha()
	}
}

// diffCache stores the raw per-dimension differences x_i − x_j for every
// pair j ≤ i, laid out as a row-major triangle so appending observation n
// appends pairs (n, 0..n) without disturbing existing entries. Raw
// differences — not squared distances — are cached because sqDist divides
// by the lengthscale *before* squaring; caching the difference lets
// EvalDiff replay sqDist's exact operation sequence, keeping every cached
// kernel value bit-identical to a direct Eval.
type diffCache struct {
	dim  int
	pts  [][]float64 // the cached points, for prefix-identity checks
	data []float64   // (n(n+1)/2)·dim raw differences
}

// pair returns the difference vector for pair (i, j), j ≤ i.
func (c *diffCache) pair(i, j int) []float64 {
	off := (i*(i+1)/2 + j) * c.dim
	return c.data[off : off+c.dim]
}

// sameSlice reports whether two slices share identity (same backing start
// and length), which is how the cache detects that a caller's dataset is
// an append-only extension of what it has already processed.
func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sync brings the cache in line with x, reusing every pair whose points
// are identical to the cached prefix and rebuilding only the rest.
func (c *diffCache) sync(x [][]float64) {
	dim := 0
	if len(x) > 0 {
		dim = len(x[0])
	}
	if dim != c.dim {
		c.dim = dim
		c.pts = c.pts[:0]
		c.data = c.data[:0]
	}
	keep := 0
	for keep < len(c.pts) && keep < len(x) && sameSlice(c.pts[keep], x[keep]) {
		keep++
	}
	c.pts = c.pts[:keep]
	c.data = c.data[:keep*(keep+1)/2*dim]
	for i := keep; i < len(x); i++ {
		xi := x[i]
		for j := 0; j <= i; j++ {
			xj := x[j]
			for k := 0; k < dim; k++ {
				c.data = append(c.data, xi[k]-xj[k])
			}
		}
		c.pts = append(c.pts, xi)
	}
}

// Fit conditions the GP on the observations (X, y). It copies neither X
// nor y; callers must not mutate them afterwards. When X appends exactly
// one point to the previously fitted set and the hyperparameters are
// unchanged, the existing Cholesky factor is extended in O(n²); any other
// change falls back to the full refactorization. Both paths produce
// bit-identical factors. Fit returns an error if the covariance matrix is
// numerically singular even after jitter escalation; a failed Fit leaves
// the GP exactly as it was before the call, still conditioned on the
// previous observations.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) != len(y) {
		panic(fmt.Sprintf("gp: |X|=%d but |y|=%d", len(x), len(y)))
	}
	if len(y) == 0 {
		panic("gp: Fit with zero observations")
	}
	extendable := g.chol != nil && g.factorN >= 1 &&
		len(x) == g.factorN+1 && len(g.x) == g.factorN &&
		g.paramsUnchanged() && samePrefix(x, g.x)
	oldX, oldY, oldN := g.x, g.y, g.factorN
	g.x, g.y = x, y
	if g.batchk != nil {
		g.diffs.sync(x)
	}
	g.standardize()
	if extendable && g.tryExtend() {
		g.factorN = len(x)
		g.solveAlpha()
		return nil
	}
	if err := g.refactor(); err != nil {
		// A failed refactor leaves the live factor and alpha intact, so
		// only the data-derived state needs rolling back.
		g.x, g.y = oldX, oldY
		if g.batchk != nil {
			g.diffs.sync(oldX)
		}
		if len(oldY) > 0 {
			g.standardize()
		}
		g.factorN = oldN
		return err
	}
	return nil
}

// samePrefix reports whether x starts with exactly the points of old.
func samePrefix(x, old [][]float64) bool {
	for i := range old {
		if !sameSlice(x[i], old[i]) {
			return false
		}
	}
	return true
}

// currentParams appends the kernel hyperparameters plus logNoise to dst.
// Batch-capable kernels append in place; the generic path pays one
// Params() allocation.
func (g *GP) currentParams(dst []float64) []float64 {
	if g.batchk != nil {
		dst = g.batchk.appendParams(dst)
	} else {
		dst = append(dst, g.kernel.Params()...)
	}
	return append(dst, g.logNoise)
}

// paramsUnchanged reports whether the kernel hyperparameters and noise
// match those of the current factorization.
func (g *GP) paramsUnchanged() bool {
	p := g.currentParams(g.paramBuf[:0])
	g.paramBuf = p
	if len(g.factorParams) != len(p) {
		return false
	}
	for i, v := range p {
		if g.factorParams[i] != v {
			return false
		}
	}
	return true
}

// recordFactor notes the hyperparameters and jitter the live factor was
// built under, enabling the incremental Fit path next time. It runs once
// per FitMLE objective evaluation, so it must not allocate in steady
// state.
func (g *GP) recordFactor(n int, jitter float64) {
	g.factorN = n
	g.factorJitter = jitter
	g.factorParams = g.currentParams(g.factorParams[:0])
}

// tryExtend appends the newest observation to the existing Cholesky
// factor at the recorded jitter. The bordering row replays exactly the
// operations a full factorization would execute for its final row, so a
// successful extension is bit-identical to refactoring from scratch. On
// a non-positive pivot it reports false with the factor unchanged and the
// caller falls back to the full jitter-escalation path — which is again
// identical to what the from-scratch code would have done, because every
// jitter attempt below the recorded one fails on the leading principal
// block exactly as it did at order n.
func (g *GP) tryExtend() bool {
	m := len(g.x) - 1 // index of the new point
	if cap(g.rowBuf) < m {
		g.rowBuf = make([]float64, m)
	}
	row := g.rowBuf[:m]
	var diag float64
	if g.batchk != nil {
		// Pairs (m, 0..m-1) are contiguous in the difference cache's
		// triangle, so the whole bordering row is one batched call.
		off := m * (m + 1) / 2 * g.diffs.dim
		g.batchk.evalDiffBatch(row, g.diffs.data[off:off+m*g.diffs.dim])
		diag = g.batchk.EvalDiff(g.diffs.pair(m, m))
	} else {
		for j := 0; j < m; j++ {
			row[j] = g.kernel.Eval(g.x[j], g.x[m])
		}
		diag = g.kernel.Eval(g.x[m], g.x[m])
	}
	return g.chol.Extend(row, diag+g.factorJitter) == nil
}

// standardize computes yStd = (y − mean) / scale. With a prior mean set
// it standardizes the residuals y − m(x) instead; the zero-mean branch
// is the original code, untouched, so mean-free fits are bit-identical.
func (g *GP) standardize() {
	if g.mean != nil {
		g.standardizeResiduals()
		return
	}
	var s float64
	for _, v := range g.y {
		s += v
	}
	g.yMean = s / float64(len(g.y))
	var ss float64
	for _, v := range g.y {
		d := v - g.yMean
		ss += d * d
	}
	g.yScale = math.Sqrt(ss / float64(len(g.y)))
	if g.yScale < 1e-12 {
		g.yScale = 1 // constant targets: predict the mean with prior variance
	}
	if cap(g.yStd) < len(g.y) {
		g.yStd = make([]float64, len(g.y))
	}
	g.yStd = g.yStd[:len(g.y)]
	for i, v := range g.y {
		g.yStd[i] = (v - g.yMean) / g.yScale
	}
}

// standardizeResiduals is standardize over the residuals y − m(x): the
// prior mean absorbs the fleet's shape knowledge and the GP models what
// this job deviates from it. The residuals get the same center/scale
// treatment raw targets do, so kernel hyperparameter boxes stay
// scale-free regardless of how far the prior sits from the truth.
func (g *GP) standardizeResiduals() {
	n := len(g.y)
	if cap(g.priorMu) < n {
		g.priorMu = make([]float64, n)
	}
	g.priorMu = g.priorMu[:n]
	for i, x := range g.x {
		pm, _ := g.mean.MeanVar(x)
		g.priorMu[i] = pm
	}
	var s float64
	for i, v := range g.y {
		s += v - g.priorMu[i]
	}
	g.yMean = s / float64(n)
	var ss float64
	for i, v := range g.y {
		d := v - g.priorMu[i] - g.yMean
		ss += d * d
	}
	g.yScale = math.Sqrt(ss / float64(n))
	if g.yScale < 1e-12 {
		g.yScale = 1
	}
	if cap(g.yStd) < n {
		g.yStd = make([]float64, n)
	}
	g.yStd = g.yStd[:n]
	for i, v := range g.y {
		g.yStd[i] = (v - g.priorMu[i] - g.yMean) / g.yScale
	}
}

// buildK fills the kmat scratch with the kernel matrix (no noise on the
// diagonal). Batch kernels evaluate from the difference cache and only
// fill the lower triangle, which is all the factorization reads.
func (g *GP) buildK(n int) {
	if g.kmat == nil {
		g.kmat = mat.NewDense(n, n)
	} else {
		g.kmat.Reset(n, n)
	}
	if g.batchk != nil {
		// Row i's pairs (i, 0..i) sit contiguously in the triangle, so
		// each lower-triangle row fills with one devirtualized call.
		dim := g.diffs.dim
		for i := 0; i < n; i++ {
			off := i * (i + 1) / 2 * dim
			g.batchk.evalDiffBatch(g.kmat.Row(i)[:i+1], g.diffs.data[off:off+(i+1)*dim])
		}
		return
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := g.kernel.Eval(g.x[i], g.x[j])
			g.kmat.Set(i, j, v)
			g.kmat.Set(j, i, v)
		}
	}
}

// refactor rebuilds the Cholesky factorization of K + noise·I, escalating
// jitter a few times if the kernel matrix is borderline. The kernel
// matrix is built once per call; each jitter attempt factors it with a
// diagonal shift into a double-buffered target, leaving the live factor
// intact until an attempt succeeds.
func (g *GP) refactor() error {
	n := len(g.x)
	g.buildK(n)
	jitter := g.Noise()
	for attempt := 0; attempt < 6; attempt++ {
		c, err := mat.CholeskyInto(g.spare, g.kmat, jitter)
		if err == nil {
			g.spare = g.chol
			g.chol = c
			g.recordFactor(n, jitter)
			g.solveAlpha()
			return nil
		}
		g.spare = c
		jitter *= 10
	}
	g.factorN = -1 // the live factor no longer matches the data
	return fmt.Errorf("gp: covariance not positive-definite after jitter escalation: %w", mat.ErrNotSPD)
}

// solveAlpha recomputes alpha = (K+σ²I)⁻¹·yStd into the reusable buffer.
func (g *GP) solveAlpha() {
	n := len(g.yStd)
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n)
	}
	g.alpha = g.alpha[:n]
	g.chol.SolveVecInto(g.alpha, g.yStd)
}

// PredictScratch holds the per-caller buffers for PredictInto. A zero
// value is ready to use; buffers grow on demand and are reused across
// calls, making steady-state prediction allocation-free.
type PredictScratch struct {
	ks, v []float64
}

func (s *PredictScratch) resize(n int) {
	if cap(s.ks) < n {
		s.ks = make([]float64, n)
		s.v = make([]float64, n)
	}
	s.ks = s.ks[:n]
	s.v = s.v[:n]
}

// Predict returns the posterior mean and standard deviation at x,
// in the original target units.
func (g *GP) Predict(x []float64) (mu, sigma float64) {
	var s PredictScratch
	return g.PredictInto(x, &s)
}

// PredictInto is Predict using caller-provided scratch buffers, so the
// hot candidate-scoring loop performs zero allocations. It only reads the
// GP's state and is safe to call concurrently (with distinct scratch)
// as long as nothing refits the model.
func (g *GP) PredictInto(x []float64, s *PredictScratch) (mu, sigma float64) {
	if g.chol == nil {
		panic(ErrNoData)
	}
	n := len(g.x)
	s.resize(n)
	for i := range g.x {
		s.ks[i] = g.kernel.Eval(g.x[i], x)
	}
	muStd := mat.Dot(s.ks, g.alpha)
	// var = k(x,x) − ksᵀ (K+σ²I)⁻¹ ks, computed via the forward solve.
	g.chol.ForwardSolveInto(s.v, s.ks)
	variance := g.kernel.Eval(x, x) - mat.Dot(s.v, s.v)
	if variance < 0 {
		variance = 0
	}
	mu = muStd*g.yScale + g.yMean
	sigma = math.Sqrt(variance) * g.yScale
	if g.mean != nil {
		pm, pv := g.mean.MeanVar(x)
		mu += pm
		// The pv==0 gate matters for bit-identity: Sqrt(sigma²) is not
		// guaranteed to reproduce sigma, so a confident prior must not
		// launder the posterior spread through a square/sqrt round trip.
		if pv > 0 {
			sigma = math.Sqrt(sigma*sigma + pv)
		}
	}
	return mu, sigma
}

// PredictMatrixScratch holds the per-caller buffers for PredictMatrix.
// A zero value is ready to use; buffers grow on demand and are reused
// across calls, making steady-state batch prediction allocation-free.
type PredictMatrixScratch struct {
	ks    *mat.Dense // n×m cross-kernel block K(X, Q)
	v     *mat.Dense // n×m forward-solved L⁻¹·K(X, Q)
	muStd []float64  // m standardized posterior means
	self  []float64  // m prior self-variances k(q, q)
}

func (s *PredictMatrixScratch) resize(n, m int) {
	if s.ks == nil {
		s.ks = mat.NewDense(n, m)
	} else {
		s.ks.Reset(n, m)
	}
	if cap(s.muStd) < m {
		s.muStd = make([]float64, m)
		s.self = make([]float64, m)
	}
	s.muStd = s.muStd[:m]
	s.self = s.self[:m]
}

// PredictMatrix fills mu[c], sigma[c] with the posterior at the m queries
// packed row-major in qs (len(qs) = m·dim), in original target units. It
// is the batched form of a PredictInto loop and is bit-identical to it:
//
//   - row i of the cross-kernel block K* holds k(xᵢ, q_c) for every query,
//     evaluated with exactly the operand order PredictInto's ks loop uses;
//   - the posterior mean is one K*ᵀ·alpha product whose per-query
//     accumulation order matches mat.Dot (mat.MulTVecInto);
//   - the variance term backsolves the whole block against the Cholesky
//     factor in one pass (mat.ForwardSolveBatchInto, per-column identical
//     to ForwardSolveInto), then accumulates Σᵢ v²ᵢ per query in ascending
//     i — mat.Dot's order — before the same clamp and rescale.
//
// Like PredictInto it only reads the GP and is safe to call concurrently
// with distinct scratch as long as nothing refits the model.
func (g *GP) PredictMatrix(qs []float64, dim int, mu, sigma []float64, s *PredictMatrixScratch) {
	if g.chol == nil {
		panic(ErrNoData)
	}
	if dim <= 0 || len(qs)%dim != 0 {
		panic(fmt.Sprintf("gp: PredictMatrix packed queries %d not a multiple of dim %d", len(qs), dim))
	}
	m := len(qs) / dim
	if len(mu) < m || len(sigma) < m {
		panic(fmt.Sprintf("gp: PredictMatrix outputs %d,%d < %d queries", len(mu), len(sigma), m))
	}
	if m == 0 {
		return
	}
	n := len(g.x)
	s.resize(n, m)
	if g.batchk != nil {
		for i, xi := range g.x {
			g.batchk.evalRowInto(s.ks.Row(i), xi, qs)
		}
	} else {
		for i, xi := range g.x {
			row := s.ks.Row(i)
			for c := 0; c < m; c++ {
				row[c] = g.kernel.Eval(xi, qs[c*dim:(c+1)*dim])
			}
		}
	}
	for c := 0; c < m; c++ {
		q := qs[c*dim : (c+1)*dim]
		s.self[c] = g.kernel.Eval(q, q)
	}
	mat.MulTVecInto(s.muStd, s.ks, g.alpha)
	s.v = g.chol.ForwardSolveBatchInto(s.v, s.ks)
	// sigma doubles as the Σ v² accumulator: ascending-i accumulation per
	// column is exactly mat.Dot(v, v) on that query's solve vector.
	for c := 0; c < m; c++ {
		sigma[c] = 0
	}
	for i := 0; i < n; i++ {
		vrow := s.v.Row(i)
		for c, vv := range vrow {
			sigma[c] += vv * vv
		}
	}
	for c := 0; c < m; c++ {
		variance := s.self[c] - sigma[c]
		if variance < 0 {
			variance = 0
		}
		mu[c] = s.muStd[c]*g.yScale + g.yMean
		sigma[c] = math.Sqrt(variance) * g.yScale
	}
	if g.mean != nil {
		// Same per-query adjustment PredictInto applies, in the same
		// order, so the batched path stays bit-identical to the loop.
		for c := 0; c < m; c++ {
			pm, pv := g.mean.MeanVar(qs[c*dim : (c+1)*dim])
			mu[c] += pm
			if pv > 0 {
				sigma[c] = math.Sqrt(sigma[c]*sigma[c] + pv)
			}
		}
	}
}

// LogMarginalLikelihood returns log p(y | X, θ) of the standardized
// targets under the current hyperparameters.
func (g *GP) LogMarginalLikelihood() float64 {
	if g.chol == nil {
		panic(ErrNoData)
	}
	n := float64(len(g.yStd))
	return -0.5*mat.Dot(g.yStd, g.alpha) - 0.5*g.chol.LogDet() - 0.5*n*math.Log(2*math.Pi)
}

// FitMLEOpts configures hyperparameter fitting.
type FitMLEOpts struct {
	Starts   int // multi-start count (default 4)
	FitNoise bool
	MaxIter  int // per-start Nelder–Mead iterations (default 120)
}

// FitMLE fits the kernel hyperparameters (and optionally the noise) by
// maximizing the log marginal likelihood with optim.MultiStart. The GP
// must already have been Fit with data. rng must not be nil.
//
// Each of MultiStart's goroutines evaluates the likelihood on a private
// clone of the GP (cloned kernel, shared read-only data and difference
// cache), so the chosen hyperparameters, the rng stream, and therefore
// every downstream decision are bit-identical at any GOMAXPROCS.
func (g *GP) FitMLE(rng *rand.Rand, opts FitMLEOpts) error {
	if g.chol == nil {
		panic(ErrNoData)
	}
	if opts.Starts <= 0 {
		opts.Starts = 4
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 120
	}
	kb := g.kernel.ParamBounds()
	x0 := g.kernel.Params()
	lo := append([]float64(nil), kb.Lo...)
	hi := append([]float64(nil), kb.Hi...)
	if opts.FitNoise {
		x0 = append(x0, g.logNoise)
		lo = append(lo, math.Log(1e-8))
		hi = append(hi, math.Log(1e-1))
	}
	nk := len(g.kernel.Params())
	newObjective := func() optim.Objective { return g.cloneForFit().mleObjective(nk, opts.FitNoise) }
	res := optim.MultiStart(newObjective, x0, optim.Bounds{Lo: lo, Hi: hi}, opts.Starts, rng,
		optim.NelderMeadOpts{MaxIter: opts.MaxIter})

	// Install the winner and leave the GP conditioned on it.
	g.kernel.SetParams(res.X[:nk])
	if opts.FitNoise {
		g.logNoise = res.X[nk]
	}
	return g.refactor()
}

// mleObjective returns the negative log marginal likelihood as a function
// of the packed hyperparameter vector, evaluated by mutating g.
func (g *GP) mleObjective(nk int, fitNoise bool) optim.Objective {
	return func(p []float64) float64 {
		g.kernel.SetParams(p[:nk])
		if fitNoise {
			g.logNoise = p[nk]
		}
		if err := g.refactor(); err != nil {
			return math.Inf(1)
		}
		return -g.LogMarginalLikelihood()
	}
}

// cloneForFit returns a GP that shares g's (read-only, during FitMLE)
// observations, standardized targets, and difference cache, but owns its
// kernel and factorization scratch, so concurrent objective evaluations
// never share mutable state.
func (g *GP) cloneForFit() *GP {
	c := &GP{
		kernel:   g.kernel.Clone(),
		logNoise: g.logNoise,
		x:        g.x,
		y:        g.y,
		yStd:     g.yStd,
		yMean:    g.yMean,
		yScale:   g.yScale,
		mean:     g.mean,
		priorMu:  g.priorMu,
		diffs:    g.diffs,
		factorN:  -1,
	}
	c.batchk, _ = c.kernel.(batchStationary)
	return c
}
