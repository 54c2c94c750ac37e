package bo

import (
	"fmt"
	"math/rand"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/gp"
	"mlcd/internal/obs"
)

// Surrogate is a Gaussian-process regressor over the shared deployment
// feature encoding (cloud.Features). It models the scenario objective
// (training speed or cost efficiency) as a function of the deployment,
// refitting kernel hyperparameters by marginal likelihood once per
// Observe or ObserveAll.
type Surrogate struct {
	kernel gp.Kernel
	rng    *rand.Rand
	noise  float64
	xs     [][]float64
	ys     []float64
	model  *gp.GP
	mean   gp.Mean
	// Perf, when non-nil, receives one wall-clock sample per Observe or
	// ObserveAll (gp_refactor_seconds).
	Perf *obs.Perf
}

// NewSurrogate builds a surrogate with the given kernel over the 5-D
// deployment features. A Matérn 5/2 kernel (gp.NewMatern52(5)) is the
// conventional choice. rng drives hyperparameter multi-start.
func NewSurrogate(kernel gp.Kernel, rng *rand.Rand) *Surrogate {
	if kernel == nil {
		kernel = gp.NewMatern52(len(cloud.Features(cloud.Deployment{Type: cloud.DefaultCatalog().Types()[0], Nodes: 1})))
	}
	if rng == nil {
		panic("bo: nil rng")
	}
	return &Surrogate{kernel: kernel, rng: rng, noise: 1e-4}
}

// Len returns the number of observations absorbed.
func (s *Surrogate) Len() int { return len(s.ys) }

// SetMean installs a prior mean function on the underlying GP (nil
// restores the zero mean). The GP is created lazily at the first
// observation, so the mean is remembered and applied then; setting it
// after observations re-conditions in place. See gp.Mean.
func (s *Surrogate) SetMean(m gp.Mean) {
	s.mean = m
	if s.model != nil {
		s.model.SetMean(m)
	}
}

// Observe adds a (deployment, objective) pair, re-conditions the GP and
// refits the hyperparameters. When the hyperparameters are unchanged
// since the last refit, the GP extends its Cholesky factor incrementally
// in O(n²); the refit still pays the full refactor cost. A pair whose
// conditioning fails is not absorbed: the surrogate keeps its previous
// observations and posterior.
func (s *Surrogate) Observe(d cloud.Deployment, y float64) error {
	start := time.Now()
	if err := s.condition(d, y); err != nil {
		return err
	}
	return s.refit(start)
}

// ObserveAll adds a batch of (deployment, objective) pairs with a single
// hyperparameter refit. Each pair is conditioned in order under the
// current hyperparameters — the O(n²) Cholesky extension — and a pair
// whose conditioning fails is skipped, leaving the surrogate as it was
// before that pair; skipped lists the indices of those pairs. One
// FitMLE then runs over everything held, and the batch records one
// gp_refactor_seconds sample. A batch that absorbs nothing refits
// nothing.
func (s *Surrogate) ObserveAll(ds []cloud.Deployment, ys []float64) (skipped []int, err error) {
	if len(ds) != len(ys) {
		panic(fmt.Sprintf("bo: ObserveAll with %d deployments but %d values", len(ds), len(ys)))
	}
	start := time.Now()
	for i, d := range ds {
		if s.condition(d, ys[i]) != nil {
			skipped = append(skipped, i)
		}
	}
	if len(skipped) == len(ds) {
		return skipped, nil
	}
	return skipped, s.refit(start)
}

// condition appends one pair and re-conditions the GP under the current
// hyperparameters. On failure the pair is trimmed again; gp.GP.Fit has
// already rolled the model back to the previous observations.
func (s *Surrogate) condition(d cloud.Deployment, y float64) error {
	s.xs = append(s.xs, cloud.Features(d))
	s.ys = append(s.ys, y)
	if s.model == nil {
		s.model = gp.New(s.kernel, s.noise)
		if s.mean != nil {
			s.model.SetMean(s.mean)
		}
	}
	if err := s.model.Fit(s.xs, s.ys); err != nil {
		s.xs = s.xs[:len(s.xs)-1]
		s.ys = s.ys[:len(s.ys)-1]
		return fmt.Errorf("bo: conditioning surrogate: %w", err)
	}
	return nil
}

// refit re-optimizes the hyperparameters by marginal likelihood (below
// three observations there is too little data to fit them) and records
// the call's one gp_refactor_seconds sample, timed from start.
func (s *Surrogate) refit(start time.Time) error {
	if s.Len() >= 3 {
		if err := s.model.FitMLE(s.rng); err != nil {
			return fmt.Errorf("bo: refitting hyperparameters: %w", err)
		}
	}
	s.Perf.ObserveGPRefactor(time.Since(start))
	return nil
}

// PredictMatrix fills mu[c], sigma[c] with the posterior at the m
// queries packed row-major in feats (len(feats) = m·dim), reusing the
// caller's scratch so a hot search loop performs no per-sweep feature
// encoding or allocation. means is the prior mean's column at the
// queries when SetMean installed one, nil otherwise (see
// gp.PredictMatrix). The outputs are bit-identical to a Predict loop
// over the same queries in the same order; see gp.PredictMatrix for the
// determinism argument.
func (s *Surrogate) PredictMatrix(feats []float64, dim int, means []gp.MeanAt, mu, sigma []float64, scratch *gp.PredictMatrixScratch) {
	if s.model == nil || s.Len() == 0 {
		panic("bo: PredictMatrix before any observation")
	}
	s.model.PredictMatrix(feats, dim, means, mu, sigma, scratch)
}

// Predict returns the posterior mean and standard deviation of the
// objective at deployment d.
func (s *Surrogate) Predict(d cloud.Deployment) (mu, sigma float64) {
	if s.model == nil || s.Len() == 0 {
		panic("bo: Predict before any observation")
	}
	return s.model.Predict(cloud.Features(d))
}

// BestObserved returns the maximum objective value seen so far.
func (s *Surrogate) BestObserved() float64 {
	if len(s.ys) == 0 {
		panic("bo: no observations")
	}
	best := s.ys[0]
	for _, y := range s.ys[1:] {
		if y > best {
			best = y
		}
	}
	return best
}
