package gp

import (
	"math"
	"math/rand"
	"testing"

	"mlcd/internal/mat"
)

// fitEdges are feature values that break the kernel matrix: every
// difference with them is NaN or ±Inf, so no jitter factors it.
var fitEdges = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// fitterState returns a GP holding n observations of dim-D features,
// some points repeated (so the kernel matrix is singular, and factors
// only under enough jitter), conditioned as far as FitMLE's objective
// reads: data, standardized targets and the difference cache, with no
// factor, since a state with edge features has none. Matérn 5/2 or SE;
// with withMean set, under a prior mean.
func fitterState(rng *rand.Rand, n, dim int, se, withMean, edges bool) *GP {
	var k Kernel = NewMatern52(dim)
	if se {
		k = NewSE(dim)
	}
	g := New(k, 1e-4)
	if withMean {
		g.SetMean(funcMean(func(x []float64) (float64, float64) { return 0.3*x[0] - 0.1, 0 }))
	}
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		if i > 0 && rng.Intn(4) == 0 {
			xs[i] = append([]float64(nil), xs[rng.Intn(i)]...)
		} else {
			xs[i] = make([]float64, dim)
			for d := range xs[i] {
				xs[i][d] = float64(rng.Intn(5)) + 0.5*rng.NormFloat64()
			}
		}
		ys[i] = rng.NormFloat64()
	}
	if edges {
		xs[rng.Intn(n)][rng.Intn(dim)] = fitEdges[rng.Intn(len(fitEdges))]
	}
	g.x, g.y = xs, ys
	g.diffs.sync(xs)
	g.standardize()
	return g
}

// fitPoint draws a hyperparameter vector for g: kernel parameters in
// their box, and a log noise from 1e-18 to 1e-1, below the fit's box,
// so that some first factor attempts fail and mleObjective escalates.
func fitPoint(g *GP, rng *rand.Rand) []float64 {
	b := g.kernel.ParamBounds()
	p := make([]float64, len(b.Lo)+1)
	for i := range b.Lo {
		p[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
	}
	p[len(b.Lo)] = math.Log(1e-18) + rng.Float64()*(math.Log(1e-1)-math.Log(1e-18))
	return p
}

// firstAttemptFails reports whether mleObjective's first factor at p,
// at the jitter exp(log noise), fails on g's state.
func firstAttemptFails(g *GP, p []float64) bool {
	c := g.cloneForFit()
	nk := len(p) - 1
	c.kernel.SetParams(p[:nk])
	c.logNoise = p[nk]
	c.buildK(len(c.x))
	_, err := mat.CholeskyInto(nil, c.kmat, c.Noise())
	return err != nil
}

// checkFitter evaluates ps through f bound to g and through
// mleObjective on a fresh clone, and fails unless every value's bits
// agree; it skips where the four-lane kernels are not armed, since
// FitMLE then never builds a fitter. It returns how many points escalated the jitter and how many of
// those still factored.
func checkFitter(t testing.TB, g *GP, f *fitter, ps [][]float64, label string) (escalated, rescued int) {
	t.Helper()
	if !mat.LanesArmed() {
		t.Skip("four-lane kernels not armed here")
	}
	nk := len(ps[0]) - 1
	f.bind(g, nk)
	got := make([]float64, len(ps))
	f.eval(ps, got)
	for l, p := range ps {
		want := g.cloneForFit().mleObjective(nk)(p)
		if math.Float64bits(got[l]) != math.Float64bits(want) {
			t.Fatalf("%s: n=%d lane %d of %d: %v, mleObjective %v (p=%v)", label, len(g.x), l, len(ps), got[l], want, p)
		}
		if firstAttemptFails(g, p) {
			escalated++
			if !math.IsInf(want, 1) {
				rescued++
			}
		}
	}
	return escalated, rescued
}

// TestFitterMatchesMLEObjective pins the four-lane likelihood to the
// scalar objective bit for bit: orders 1–40, 1–4 lanes, SE and Matérn
// 5/2, with and without a prior mean, states with NaN and ±Inf
// features, and points whose first factor fails, some of which the
// jitter escalation rescues. A fitter's buffers are reused across its
// states and lane counts.
func TestFitterMatchesMLEObjective(t *testing.T) {
	t.Logf("four-lane likelihood armed: %v", mat.LanesArmed())
	rng := rand.New(rand.NewSource(71))
	escalated, rescued, points := 0, 0, 0
	for n := 1; n <= 40; n++ {
		for _, se := range []bool{false, true} {
			for _, withMean := range []bool{false, true} {
				// A fitter's kernels are cloned once, for one GP's kernel.
				f, dim := fitter{}, 1+rng.Intn(5)
				for _, edges := range []bool{false, n%3 == 0} {
					g := fitterState(rng, n, dim, se, withMean, edges)
					for lanes := 1; lanes <= 4; lanes++ {
						ps := make([][]float64, lanes)
						for l := range ps {
							ps[l] = fitPoint(g, rng)
						}
						e, r := checkFitter(t, g, &f, ps, "property")
						escalated, rescued, points = escalated+e, rescued+r, points+lanes
					}
				}
			}
		}
	}
	t.Logf("%d points: %d escalated the jitter, %d of them factored", points, escalated, rescued)
	if escalated == 0 || rescued == 0 || rescued == escalated {
		t.Errorf("%d escalations, %d rescued: want some of each outcome", escalated, rescued)
	}
}

// TestFitterScratchAcrossAppendingFit fits, appends an observation
// through the incremental Fit, and fits again: the second fit, on the
// fitter and buffers the first one left, must choose the bits a fresh
// GP's fit chooses on the same data, and leave the rng where it does.
func TestFitterScratchAcrossAppendingFit(t *testing.T) {
	for _, n := range []int{1, 5, 12, 30} {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([][]float64, n+1)
		ys := make([]float64, n+1)
		for i := range xs {
			xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			ys[i] = math.Sin(xs[i][0]) + 0.1*rng.NormFloat64()
		}
		reused := New(NewMatern52(3), 1e-4)
		if err := reused.Fit(xs[:n], ys[:n]); err != nil {
			t.Fatal(err)
		}
		if err := reused.FitMLE(rand.New(rand.NewSource(3))); err != nil {
			t.Fatal(err)
		}
		fresh := New(NewMatern52(3), 1e-4)
		fresh.kernel.SetParams(reused.kernel.Params())
		fresh.logNoise = reused.logNoise
		for _, g := range []*GP{reused, fresh} {
			if err := g.Fit(xs, ys); err != nil {
				t.Fatal(err)
			}
		}
		rngR, rngF := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		if err := reused.FitMLE(rngR); err != nil {
			t.Fatal(err)
		}
		if err := fresh.FitMLE(rngF); err != nil {
			t.Fatal(err)
		}
		a := append(reused.kernel.Params(), reused.logNoise, reused.LogMarginalLikelihood())
		b := append(fresh.kernel.Params(), fresh.logNoise, fresh.LogMarginalLikelihood())
		if !sameBits(a, b) {
			t.Fatalf("n=%d: refit on a reused fitter %v, fresh %v", n, a, b)
		}
		if x, y := rngR.Int63(), rngF.Int63(); x != y {
			t.Fatalf("n=%d: rng left at %d on a reused fitter, %d fresh", n, x, y)
		}
	}
}

// FuzzFitterMatchesMLEObjective is the property above on fuzzer-chosen
// states and points: order 1–40, 1–4 lanes, kernel, prior mean, edge
// features, and each lane's raw log noise.
func FuzzFitterMatchesMLEObjective(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(3), uint8(0), -9.0, -3.0, -40.0, -2.3)
	f.Add(int64(2), uint8(11), uint8(4), uint8(7), -18.4, -18.4, -1.0, -60.0)
	f.Add(int64(3), uint8(39), uint8(1), uint8(2), math.Inf(-1), 0.0, 5.0, math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, order, lanes, flags uint8, n0, n1, n2, n3 float64) {
		rng := rand.New(rand.NewSource(seed))
		n := int(order%40) + 1
		g := fitterState(rng, n, 1+rng.Intn(5), flags&1 != 0, flags&2 != 0, flags&4 != 0)
		noise := []float64{n0, n1, n2, n3}
		ps := make([][]float64, int(lanes%4)+1)
		for l := range ps {
			ps[l] = fitPoint(g, rng)
			ps[l][len(ps[l])-1] = noise[l]
		}
		var fit fitter
		checkFitter(t, g, &fit, ps, "fuzz")
	})
}
