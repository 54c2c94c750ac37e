// Package baselines implements the search strategies the paper compares
// HeterBO against (§V): conventional GP-EI Bayesian optimization
// (ConvBO), CherryPick with its experience-trimmed coarse search space,
// budget-aware "improved" variants of both (BO_imprd / CP_imprd, §V-D),
// plain random search (Fig. 12), and exhaustive profiling (Fig. 2).
package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mlcd/internal/bo"
	"mlcd/internal/cloud"
	"mlcd/internal/gp"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

// gpOpts parameterizes the shared GP-EI search loop.
type gpOpts struct {
	name        string
	seed        int64
	initCount   int
	maxSteps    int
	minSteps    int
	stopRatio   float64 // stop when max EI < stopRatio·|best|
	budgetAware bool    // reserve-aware stopping + constrained final pick
	// candidates optionally restricts the explorable set (CherryPick's
	// coarse grid); nil explores the full space.
	candidates func(space *cloud.Space) []cloud.Deployment
}

// gpSearcher is the conventional-BO engine: random init, GP-EI on the
// scenario objective, fixed stop rule. It is deliberately oblivious to
// profiling-cost heterogeneity and (unless budgetAware) to constraints —
// exactly the behaviours the paper criticizes in §II-D.
type gpSearcher struct {
	opts gpOpts
}

// Name implements search.Searcher.
func (g *gpSearcher) Name() string { return g.opts.name }

// Search implements search.Searcher.
func (g *gpSearcher) Search(j workload.Job, space *cloud.Space, scen search.Scenario, cons search.Constraints, prof profiler.Profiler) (search.Outcome, error) {
	if err := cons.Validate(scen); err != nil {
		return search.Outcome{}, err
	}
	if err := j.Validate(); err != nil {
		return search.Outcome{}, err
	}
	pool := space.All()
	if g.opts.candidates != nil {
		pool = g.opts.candidates(space)
	}
	if len(pool) == 0 {
		return search.Outcome{}, fmt.Errorf("baselines: empty candidate pool")
	}

	rng := rand.New(rand.NewSource(g.opts.seed))
	surr := bo.NewSurrogate(gp.NewMatern52(5), rng)
	acq := bo.EI{}

	var (
		obs       []search.Observation
		steps     []search.Step
		spentTime time.Duration
		spentCost float64
		profiled  = make(map[string]bool)

		// The per-step sweep's candidates and their packed features,
		// scored by one batched posterior.
		cands   []cloud.Deployment
		feats   []float64
		dim     = len(cloud.Features(pool[0]))
		scratch gp.PredictMatrixScratch
	)
	probe := func(d cloud.Deployment, a float64, note string) {
		r := prof.Profile(j, d)
		spentTime += r.Duration
		spentCost += r.Cost
		profiled[d.Key()] = true
		obs = append(obs, search.Observation{Deployment: d, Throughput: r.Throughput})
		steps = append(steps, search.Step{
			Index: len(steps) + 1, Deployment: d, Throughput: r.Throughput,
			ProfileTime: r.Duration, ProfileCost: r.Cost,
			CumProfileTime: spentTime, CumProfileCost: spentCost,
			Acquisition: a, Note: note,
		})
		if r.Throughput > 0 {
			// Log-objective, as in HeterBO: multiplicative scale effects
			// become additive and the GP extrapolates sanely.
			if err := surr.Observe(d, math.Log(search.Objective(scen, d, r.Throughput))); err != nil {
				steps[len(steps)-1].Note += " (surrogate: " + err.Error() + ")"
			}
		}
	}
	// admissible implements the "improved" variants' reserve: keep
	// enough deadline/budget to fall back on the least-demanding
	// feasible observation. (The plain variants skip this entirely.)
	admissible := func(d cloud.Deployment) bool {
		if !g.opts.budgetAware {
			return true
		}
		switch scen {
		case search.CheapestWithDeadline:
			headroom := cons.Deadline - spentTime - profiler.Duration(d.Nodes)
			if headroom <= 0 {
				return false
			}
			reserve, any := time.Duration(0), false
			for _, o := range obs {
				if o.Throughput <= 0 {
					continue
				}
				if t := search.EstTrainTime(j, o.Throughput); spentTime+t <= cons.Deadline && (!any || t < reserve) {
					reserve, any = t, true
				}
			}
			return !any || headroom >= reserve
		case search.FastestWithBudget:
			headroom := cons.Budget - spentCost - profiler.Cost(d)
			if headroom <= 0 {
				return false
			}
			reserve, any := 0.0, false
			for _, o := range obs {
				if o.Throughput <= 0 {
					continue
				}
				if c := search.EstTrainCost(j, o.Deployment, o.Throughput); spentCost+c <= cons.Budget && (!any || c < reserve) {
					reserve, any = c, true
				}
			}
			return !any || headroom >= reserve
		default:
			return true
		}
	}

	// Random initialization, as in conventional BO (§II-D, Fig. 4a).
	stopped := ""
	for i := 0; i < g.opts.initCount && i < len(pool); i++ {
		d, ok := randomUnprofiled(rng, pool, profiled, admissible)
		if !ok {
			break
		}
		probe(d, 0, "init")
	}
	if surr.Len() == 0 && len(obs) == 0 {
		stopped = "no admissible initial probe"
	}

	for stopped == "" && len(steps) < g.opts.maxSteps {
		if surr.Len() == 0 {
			// Every probe so far crashed (OOM). Conventional BO has no
			// feasibility model; it just draws another random point.
			d, ok := randomUnprofiled(rng, pool, profiled, admissible)
			if !ok {
				stopped = "no usable observations"
				break
			}
			probe(d, 0, "re-init")
			continue
		}
		bestObj := surr.BestObserved()
		cands, feats = cands[:0], feats[:0]
		for _, d := range pool {
			if profiled[d.Key()] || !admissible(d) {
				continue
			}
			cands = append(cands, d)
			feats = append(feats, cloud.Features(d)...)
		}
		mu, sigma := make([]float64, len(cands)), make([]float64, len(cands))
		surr.PredictMatrix(feats, dim, nil, mu, sigma, &scratch)
		var (
			bestD  cloud.Deployment
			bestEI = -1.0
		)
		for c, d := range cands {
			if ei := acq.Score(mu[c], sigma[c], bestObj); ei > bestEI {
				bestEI = ei
				bestD = d
			}
		}
		switch {
		case bestEI < 0:
			stopped = "no admissible candidate"
		case len(steps) >= g.opts.minSteps && bestEI < g.opts.stopRatio:
			// EI is a log-ratio gain; stopRatio is the minimum relative
			// improvement worth another probe.
			stopped = "expected improvement below tolerance"
		default:
			probe(bestD, bestEI, "explore")
		}
	}
	if stopped == "" {
		stopped = "step cap reached"
	}

	var bestObs search.Observation
	var found bool
	if g.opts.budgetAware {
		bestObs, found = search.PickBest(j, scen, cons, spentTime, spentCost, obs)
	} else {
		// Constraint-oblivious in the paper's sense: the final pick
		// respects the constraint *for training alone* but pretends the
		// profiling time/money already burned doesn't exist — which is
		// precisely how ConvBO ends up overrunning deadlines and
		// budgets (§V-B, Figs. 10–11).
		bestObs, found = search.PickBest(j, scen, cons, 0, 0, obs)
	}
	return search.Outcome{
		Searcher: g.opts.name, Job: j, Scenario: scen, Constraints: cons,
		Best: bestObs.Deployment, BestThroughput: bestObs.Throughput, Found: found,
		Steps: steps, ProfileTime: spentTime, ProfileCost: spentCost, Stopped: stopped,
	}, nil
}

// randomUnprofiled draws an admissible, not-yet-profiled point uniformly
// from the pool (bounded rejection sampling).
func randomUnprofiled(rng *rand.Rand, pool []cloud.Deployment, profiled map[string]bool, admissible func(cloud.Deployment) bool) (cloud.Deployment, bool) {
	for tries := 0; tries < 4*len(pool)+16; tries++ {
		d := pool[rng.Intn(len(pool))]
		if !profiled[d.Key()] && admissible(d) {
			return d, true
		}
	}
	return cloud.Deployment{}, false
}

// incumbent returns the observation maximizing the scenario objective.
func incumbent(scen search.Scenario, obs []search.Observation) (search.Observation, bool) {
	bestVal := -1.0
	var best search.Observation
	for _, o := range obs {
		if o.Throughput <= 0 {
			continue
		}
		if v := search.Objective(scen, o.Deployment, o.Throughput); v > bestVal {
			bestVal = v
			best = o
		}
	}
	return best, bestVal > 0
}

// NewConvBO returns conventional Bayesian optimization: 2 random initial
// probes, full space, plain EI, 1 % stop, oblivious to profiling cost and
// user constraints.
func NewConvBO(seed int64) search.Searcher {
	return &gpSearcher{opts: gpOpts{
		name: "convbo", seed: seed,
		initCount: 2, maxSteps: 15, minSteps: 8, stopRatio: 0.002,
	}}
}

// NewImprovedBO returns BO_imprd (§V-D): ConvBO strengthened with
// budget/deadline awareness — it stops before breaking the reserve and
// picks the best constraint-satisfying deployment — but still does not
// weigh heterogeneous profiling cost in its acquisition.
func NewImprovedBO(seed int64) search.Searcher {
	return &gpSearcher{opts: gpOpts{
		name: "bo_imprd", seed: seed,
		initCount: 2, maxSteps: 15, minSteps: 8, stopRatio: 0.002,
		budgetAware: true,
	}}
}

// cherryGrid coarsens the scale-out axis the way CherryPick's discrete
// configuration menu does.
func cherryGrid(space *cloud.Space) []cloud.Deployment {
	wanted := map[int]bool{1: true, 2: true, 4: true, 8: true, 12: true,
		16: true, 24: true, 32: true, 48: true, 64: true, 100: true}
	var out []cloud.Deployment
	for i := 0; i < space.Len(); i++ {
		if d := space.At(i); wanted[d.Nodes] {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return space.All()
	}
	return out
}

// NewCherryPick returns the CherryPick baseline (ConvCP): GP-EI over an
// experience-trimmed space (callers pass the trimmed space, as the paper
// does to favour it) with a coarse scale-out grid and the published
// EI < 10 % stop rule. Constraint-oblivious.
func NewCherryPick(seed int64) search.Searcher {
	return &gpSearcher{opts: gpOpts{
		name: "cherrypick", seed: seed,
		initCount: 3, maxSteps: 10, minSteps: 4, stopRatio: 0.10,
		candidates: cherryGrid,
	}}
}

// NewImprovedCherryPick returns CP_imprd (§V-D): CherryPick strengthened
// with budget/deadline awareness.
func NewImprovedCherryPick(seed int64) search.Searcher {
	return &gpSearcher{opts: gpOpts{
		name: "cp_imprd", seed: seed,
		initCount: 3, maxSteps: 10, minSteps: 4, stopRatio: 0.10,
		candidates: cherryGrid, budgetAware: true,
	}}
}
