package gp

// GapRegressor learns the low→full fidelity gap of sub-sampled probes.
// A short-burst measurement at fidelity f reads the log-objective low by
// an amount that is — by construction in the simulator, and empirically
// in TrimTuner-style systems — close to linear in (1−f) with a slope
// that depends on the hardware/workload pair:
//
//	gap(f) = y_full − y_low ≈ β_key · (1−f)
//
// The regressor fits one through-the-origin slope β per key (the search
// keys by instance-type name) from exact promotion pairs: the same
// deployment measured first low then full. Keys with few pairs shrink
// toward the global slope across all keys, which itself shrinks toward
// a prior — so corrections are sane from the very first low probe.
type GapRegressor struct {
	byKey  map[string]*gapFit
	global gapFit
}

const (
	// DefaultPriorBeta anchors every estimate before data arrives: the
	// typical log-gap of a zero-length burst. Short bursts typically read
	// ~18 % low over the full fidelity range, the simulator's average γ.
	DefaultPriorBeta = 0.18
	// priorWeight is the prior's strength in pseudo-pairs at x = 1−f = 1.
	priorWeight = 1.0
)

// gapFit accumulates least-squares sufficient statistics for one
// through-the-origin line gap = β·x, x = 1−f.
type gapFit struct {
	sxx, sxy float64
	n        int
}

// NewGapRegressor returns a regressor anchored at DefaultPriorBeta.
func NewGapRegressor() *GapRegressor {
	return &GapRegressor{byKey: make(map[string]*gapFit)}
}

// Observe records one measured pair: the same point's log-objective at
// fidelity f and at full fidelity differed by gapLog = yFull − yLow.
func (g *GapRegressor) Observe(key string, f, gapLog float64) {
	x := 1 - f
	if x <= 0 {
		return
	}
	fit := g.byKey[key]
	if fit == nil {
		fit = &gapFit{}
		g.byKey[key] = fit
	}
	fit.sxx += x * x
	fit.sxy += x * gapLog
	fit.n++
	g.global.sxx += x * x
	g.global.sxy += x * gapLog
	g.global.n++
}

// Beta returns the estimated gap slope for key: the per-key least-
// squares slope shrunk (one pseudo-pair) toward the global slope, which
// is itself shrunk (priorWeight pseudo-pairs) toward DefaultPriorBeta.
func (g *GapRegressor) Beta(key string) float64 {
	globalBeta := (g.global.sxy + priorWeight*DefaultPriorBeta) / (g.global.sxx + priorWeight)
	fit := g.byKey[key]
	if fit == nil {
		return globalBeta
	}
	return (fit.sxy + globalBeta) / (fit.sxx + 1)
}

// Predict returns the expected log-gap of a fidelity-f measurement
// under key (0 at full fidelity).
func (g *GapRegressor) Predict(key string, f float64) float64 {
	if f >= 1 {
		return 0
	}
	return g.Beta(key) * (1 - f)
}

// Correct lifts a fidelity-f log-objective reading to its predicted
// full-fidelity value.
func (g *GapRegressor) Correct(key string, f, yLow float64) float64 {
	return yLow + g.Predict(key, f)
}
