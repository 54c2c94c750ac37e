package obs

import "time"

// perfBuckets resolve the sub-millisecond work the surrogate engine does
// per probe: GP refactorizations run in microseconds at BO scale, and a
// full candidate-scoring sweep in tens of microseconds to milliseconds.
var perfBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// Perf bundles the wall-clock histograms that make the surrogate engine's
// speed visible on /metrics. Unlike every other series in this package
// the samples are real elapsed time, not virtual-clock time, so traces
// and deterministic metric comparisons must never include them — they
// exist purely so an operator (or a before/after benchmark) can see where
// the search loop spends its time.
type Perf struct {
	// GPRefactorSeconds times each surrogate re-conditioning, one sample
	// per Observe or ObserveAll: the Cholesky extension (or full
	// factorization) of every observation the call absorbs, plus the one
	// hyperparameter refit that follows.
	GPRefactorSeconds *Histogram
	// SearchScoreSeconds times each full candidate-scoring sweep of the
	// deployment space (the nextCandidate acquisition argmax).
	SearchScoreSeconds *Histogram
}

// NewPerf registers the performance histograms on r. A nil registry
// returns nil; callers guard their Observe calls with a nil check, so
// perf accounting is free when observability is not wired up.
func NewPerf(r *Registry) *Perf {
	if r == nil {
		return nil
	}
	return &Perf{
		GPRefactorSeconds: r.Histogram("gp_refactor_seconds",
			"Wall-clock seconds per surrogate re-conditioning, one sample per Observe or ObserveAll (fit + hyperparameter refit).",
			perfBuckets),
		SearchScoreSeconds: r.Histogram("search_score_seconds",
			"Wall-clock seconds per candidate-scoring sweep in the search core.",
			perfBuckets),
	}
}

// ObserveGPRefactor records one surrogate re-conditioning duration (one
// Observe or ObserveAll).
// Safe on a nil receiver.
func (p *Perf) ObserveGPRefactor(d time.Duration) {
	if p == nil {
		return
	}
	p.GPRefactorSeconds.Observe(d.Seconds())
}

// ObserveSearchScore records one candidate-scoring sweep duration.
// Safe on a nil receiver.
func (p *Perf) ObserveSearchScore(d time.Duration) {
	if p == nil {
		return
	}
	p.SearchScoreSeconds.Observe(d.Seconds())
}
