package gp

import (
	"math/rand"
	"runtime"
	"testing"
)

// fastKernels returns one of each stationary kernel family with randomized
// hyperparameters inside its search box.
func fastKernels(dim int, rng *rand.Rand) []Kernel {
	ks := []Kernel{NewSE(dim), NewMatern52(dim)}
	for _, k := range ks {
		b := k.ParamBounds()
		p := make([]float64, len(b.Lo))
		for i := range p {
			p[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
		}
		k.SetParams(p)
	}
	return ks
}

// TestEvalDiffMatchesEval checks the diff-cache fast path bit for bit:
// evaluating from a precomputed difference vector must equal the direct
// two-point evaluation exactly, for every stationary kernel family, in
// either subtraction order.
func TestEvalDiffMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(6)
		for _, k := range fastKernels(dim, rng) {
			x := make([]float64, dim)
			y := make([]float64, dim)
			diff := make([]float64, dim)
			neg := make([]float64, dim)
			for i := range x {
				x[i] = rng.NormFloat64() * 3
				y[i] = rng.NormFloat64() * 3
				diff[i] = x[i] - y[i]
				neg[i] = y[i] - x[i]
			}
			want := k.Eval(x, y)
			if got := k.EvalDiff(diff); got != want {
				t.Fatalf("%s: EvalDiff = %v, Eval = %v", k.Name(), got, want)
			}
			if got := k.EvalDiff(neg); got != want {
				t.Fatalf("%s: EvalDiff(−diff) = %v, Eval = %v", k.Name(), got, want)
			}
		}
	}
}

// fitRandom conditions a fresh GP on random observations, point by point
// so the incremental Fit path gets exercised.
func fitRandom(t *testing.T, k Kernel, n, dim int, rng *rand.Rand) *GP {
	t.Helper()
	g := New(k, 1e-4)
	var xs [][]float64
	var ys []float64
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.NormFloat64() * 2
		}
		xs = append(xs, x)
		ys = append(ys, rng.NormFloat64())
		if err := g.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestIncrementalFitMatchesFresh grows one GP observation by observation
// (exercising Cholesky extension) and fits a second GP on the final
// dataset in one shot; their posteriors must agree bit for bit.
func TestIncrementalFitMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		dim := 1 + rng.Intn(4)
		n := 3 + rng.Intn(12)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, dim)
			for d := range xs[i] {
				xs[i][d] = rng.NormFloat64() * 2
			}
			ys[i] = rng.NormFloat64()
		}

		inc := New(NewMatern52(dim), 1e-4)
		for i := 1; i <= n; i++ {
			if err := inc.Fit(xs[:i], ys[:i]); err != nil {
				t.Fatal(err)
			}
		}
		fresh := New(NewMatern52(dim), 1e-4)
		if err := fresh.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}

		q := make([]float64, dim)
		for probe := 0; probe < 20; probe++ {
			for d := range q {
				q[d] = rng.NormFloat64() * 3
			}
			mi, si := inc.Predict(q)
			mf, sf := fresh.Predict(q)
			if mi != mf || si != sf {
				t.Fatalf("trial %d: incremental (%v, %v) != fresh (%v, %v)", trial, mi, si, mf, sf)
			}
		}
		if li, lf := inc.LogMarginalLikelihood(), fresh.LogMarginalLikelihood(); li != lf {
			t.Fatalf("trial %d: LML %v != %v", trial, li, lf)
		}
	}
}

// TestFitMLESerialParallelIdentical checks the multi-start fan-out
// contract: at GOMAXPROCS 1 and above, the same rng stream is consumed,
// the same winner installed, the posterior identical, and the rng left in
// the same state.
func TestFitMLESerialParallelIdentical(t *testing.T) {
	fit := func(procs int) (*GP, *rand.Rand) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rng := rand.New(rand.NewSource(23))
		g := fitRandom(t, NewMatern52(3), 12, 3, rand.New(rand.NewSource(24)))
		if err := g.FitMLE(rng); err != nil {
			t.Fatal(err)
		}
		return g, rng
	}
	for _, procs := range []int{2, 3, 8} {
		a, rngA := fit(1)
		b, rngB := fit(procs)

		pa, pb := a.kernel.Params(), b.kernel.Params()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("GOMAXPROCS=%d: param %d: serial %v, parallel %v", procs, i, pa[i], pb[i])
			}
		}
		if a.Noise() != b.Noise() {
			t.Fatalf("GOMAXPROCS=%d: noise %v != %v", procs, a.Noise(), b.Noise())
		}
		// The rng must be left in the same state: subsequent draws decide
		// downstream search behavior.
		if x, y := rngA.Float64(), rngB.Float64(); x != y {
			t.Fatalf("GOMAXPROCS=%d: rng streams diverged: %v vs %v", procs, x, y)
		}
		q := []float64{0.3, -1.2, 0.8}
		ma, sa := a.Predict(q)
		mb, sb := b.Predict(q)
		if ma != mb || sa != sb {
			t.Fatalf("GOMAXPROCS=%d: posterior (%v,%v) != (%v,%v)", procs, ma, sa, mb, sb)
		}
	}
}

// TestBatchKernelMatchesScalar pins the devirtualized row-batch kernel
// evaluations bit for bit against the scalar Eval/EvalDiff calls they
// replace, for every stationary family, including the exact-zero
// diagonal short-circuit.
func TestBatchKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 30; trial++ {
		dim := 1 + rng.Intn(6)
		m := 1 + rng.Intn(20)
		for _, k := range fastKernels(dim, rng) {
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.NormFloat64() * 3
			}
			qs := make([]float64, m*dim)
			for i := range qs {
				qs[i] = rng.NormFloat64() * 3
			}
			// One query coincides with x so the r2 == 0 branch fires.
			copy(qs[(m-1)*dim:], x)
			dst := make([]float64, m)
			k.evalRowInto(dst, x, qs)
			for c := 0; c < m; c++ {
				if want := k.Eval(x, qs[c*dim:(c+1)*dim]); dst[c] != want {
					t.Fatalf("%s: evalRowInto[%d] = %v, Eval = %v", k.Name(), c, dst[c], want)
				}
			}
			diffs := make([]float64, m*dim)
			for c := 0; c < m; c++ {
				for d := 0; d < dim; d++ {
					diffs[c*dim+d] = x[d] - qs[c*dim+d]
				}
			}
			k.evalDiffBatch(dst, diffs)
			for c := 0; c < m; c++ {
				if want := k.EvalDiff(diffs[c*dim : (c+1)*dim]); dst[c] != want {
					t.Fatalf("%s: evalDiffBatch[%d] = %v, EvalDiff = %v", k.Name(), c, dst[c], want)
				}
			}
			// appendParams must match Params exactly.
			p := k.appendParams(nil)
			for i, v := range k.Params() {
				if p[i] != v {
					t.Fatalf("%s: appendParams[%d] = %v, Params = %v", k.Name(), i, p[i], v)
				}
			}
		}
	}
}

// packQueries flattens query points row-major for PredictMatrix.
func packQueries(xs [][]float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	out := make([]float64, 0, len(xs)*len(xs[0]))
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}

// TestPredictMatrixMatchesPredictInto is the batch posterior's core
// contract: identical bits to a PredictInto loop over the same queries,
// for every kernel family, across sizes, including queries that coincide
// with training points.
func TestPredictMatrixMatchesPredictInto(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 20; trial++ {
		dim := 1 + rng.Intn(5)
		n := 1 + rng.Intn(16)
		for _, k := range fastKernels(dim, rng) {
			g := fitRandom(t, k, n, dim, rng)
			m := 1 + rng.Intn(30)
			xs := make([][]float64, m)
			for i := range xs {
				xs[i] = make([]float64, dim)
				for d := range xs[i] {
					xs[i][d] = rng.NormFloat64() * 3
				}
			}
			// One query sits exactly on a training point.
			copy(xs[m-1], g.x[rng.Intn(n)])
			var ps PredictScratch
			wantMu := make([]float64, m)
			wantSigma := make([]float64, m)
			for i, x := range xs {
				wantMu[i], wantSigma[i] = g.PredictInto(x, &ps)
			}
			var s PredictMatrixScratch
			mu := make([]float64, m)
			sigma := make([]float64, m)
			g.PredictMatrix(packQueries(xs), dim, nil, mu, sigma, &s)
			for i := range xs {
				if mu[i] != wantMu[i] || sigma[i] != wantSigma[i] {
					t.Fatalf("%s trial %d: query %d: (%v,%v) want (%v,%v)",
						k.Name(), trial, i, mu[i], sigma[i], wantMu[i], wantSigma[i])
				}
			}
		}
	}
}

// TestPredictMatrixZeroAlloc pins the zero-allocation contract of the
// hot candidate-scoring path: with warmed scratch, a steady-state
// PredictMatrix sweep performs zero allocations.
func TestPredictMatrixZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := fitRandom(t, NewMatern52(4), 20, 4, rng)
	qs := make([]float64, 50*4)
	for i := range qs {
		qs[i] = rng.NormFloat64()
	}
	mu := make([]float64, 50)
	sigma := make([]float64, 50)
	var s PredictMatrixScratch
	g.PredictMatrix(qs, 4, nil, mu, sigma, &s) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		g.PredictMatrix(qs, 4, nil, mu, sigma, &s)
	})
	if allocs != 0 {
		t.Fatalf("PredictMatrix allocates %v per call, want 0", allocs)
	}
}

// TestScratchGrowsGeometrically replays a search's surrogate traffic,
// one more observation per step, each step a refit and a sweep of 95
// candidates through one PredictMatrixScratch, and counts the backing
// arrays the sweep's cross-kernel block and the refit's kernel matrix
// go through: the block grows a row per step and the matrix a row and a
// column, so each must be reallocated O(log n) times, not once a step.
func TestScratchGrowsGeometrically(t *testing.T) {
	const steps, m, dim = 64, 95, 5
	rng := rand.New(rand.NewSource(31))
	qs := make([]float64, m*dim)
	for i := range qs {
		qs[i] = rng.NormFloat64()
	}
	mu, sigma := make([]float64, m), make([]float64, m)
	g := New(NewMatern52(dim), 1e-4)
	var (
		s             PredictMatrixScratch
		xs            [][]float64
		ys            []float64
		block, kmat   *float64
		blocks, kmats int
	)
	for n := 1; n <= steps; n++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.NormFloat64()
		}
		xs, ys = append(xs, x), append(ys, rng.NormFloat64())
		// Fresh hyperparameters each step force the full refactor, as a
		// refit's install does.
		g.kernel.SetParams(append([]float64{0.1 * float64(n%3)}, 0, 0, 0, 0, 0))
		if err := g.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		g.PredictMatrix(qs, dim, nil, mu, sigma, &s)
		if p := &s.ks.Row(0)[0]; p != block {
			block, blocks = p, blocks+1
		}
		if p := &g.kmat.Row(0)[0]; p != kmat {
			kmat, kmats = p, kmats+1
		}
	}
	// Doubling from one row reaches 64 rows in 7 arrays; the matrix's
	// n² entries need about twice as many doublings.
	if blocks > 8 || kmats > 14 {
		t.Fatalf("over %d steps the sweep block took %d arrays and the kernel matrix %d; want O(log n)", steps, blocks, kmats)
	}
}

// FuzzPredictMatrix drives the batch posterior with fuzzer-chosen sizes
// and seeds, asserting bit equality with the serial path — the same
// harness shape FuzzCholeskyExtend uses for the incremental factor.
func FuzzPredictMatrix(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(10))
	f.Add(int64(42), uint8(1), uint8(1))
	f.Add(int64(-3), uint8(12), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, size, queries uint8) {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(5)
		n := int(size%16) + 1
		m := int(queries%40) + 1
		g := New(NewMatern52(dim), 1e-4)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, dim)
			for d := range xs[i] {
				xs[i][d] = rng.NormFloat64() * 2
			}
			ys[i] = rng.NormFloat64()
		}
		if err := g.Fit(xs, ys); err != nil {
			t.Skip("conditioning failed")
		}
		q := make([][]float64, m)
		for i := range q {
			q[i] = make([]float64, dim)
			for d := range q[i] {
				q[i][d] = rng.NormFloat64() * 3
			}
		}
		var ps PredictScratch
		var s PredictMatrixScratch
		mu := make([]float64, m)
		sigma := make([]float64, m)
		g.PredictMatrix(packQueries(q), dim, nil, mu, sigma, &s)
		for i, x := range q {
			wm, ws := g.PredictInto(x, &ps)
			if mu[i] != wm || sigma[i] != ws {
				t.Fatalf("query %d: (%v,%v) want (%v,%v)", i, mu[i], sigma[i], wm, ws)
			}
		}
	})
}
