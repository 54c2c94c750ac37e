package mat_test

import (
	"math"
	"math/rand"
	"testing"

	"mlcd/internal/cloud"
	"mlcd/internal/gp"
	"mlcd/internal/mat"
)

// fitCatalog conditions a Matérn 5/2 GP on n deployments drawn from the
// default catalog, fits its hyperparameters and sweeps the posterior
// over the whole catalog. It returns the fitted parameters and
// log-likelihood followed by every posterior mean and deviation. Catalog
// features repeat, so the kernel matrices are near-singular and the
// jitter ladder gets climbed.
func fitCatalog(t *testing.T, n int) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	space := cloud.NewSpace(cloud.DefaultCatalog(), cloud.SpaceLimits{MaxCPUNodes: 16, MaxGPUNodes: 8})
	all := space.All()
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		d := all[rng.Intn(len(all))]
		xs[i] = cloud.Features(d)
		ys[i] = math.Log(float64(d.Nodes))*0.8 + float64(d.Type.GPUs) + rng.NormFloat64()*0.05
	}
	k := gp.NewMatern52(len(xs[0]))
	g := gp.New(k, 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := g.FitMLE(rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	var qs []float64
	for _, d := range all {
		qs = append(qs, cloud.Features(d)...)
	}
	mu, sigma := make([]float64, len(all)), make([]float64, len(all))
	var s gp.PredictMatrixScratch
	g.PredictMatrix(qs, len(xs[0]), nil, mu, sigma, &s)
	out := append(k.Params(), g.Noise(), g.LogMarginalLikelihood())
	return append(append(out, mu...), sigma...)
}

// TestFitMLECatalogMatLanesMatchScalar fits catalog GP states with this
// package's four-lane kernels (the factor and the batched forward solve)
// armed and disarmed: the fitted parameters, the log-likelihood and the
// posterior sweep, whose means are the alpha weights applied, must be
// identical bit for bit. internal/gp's tests do the same for its
// kernels.
func TestFitMLECatalogMatLanesMatchScalar(t *testing.T) {
	for _, n := range []int{3, 9, 17, 26, 35} {
		armed := fitCatalog(t, n)
		restore := mat.DisarmLanes()
		scalar := fitCatalog(t, n)
		restore()
		for i := range armed {
			if math.Float64bits(armed[i]) != math.Float64bits(scalar[i]) {
				t.Fatalf("n=%d: value %d of the fit and sweep is %v armed, %v disarmed", n, i, armed[i], scalar[i])
			}
		}
	}
}
