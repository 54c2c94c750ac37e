// Package core implements HeterBO, the paper's contribution (§III): a
// Bayesian-optimization deployment search that, unlike conventional BO,
//
//   - embeds each candidate's *heterogeneous profiling cost* (Eqs. 7–8)
//     into the acquisition so expensive probes must justify themselves
//     (expected improvement per unit exploration cost);
//   - enforces user constraints during the search via the True Expected
//     Improvement headroom of Eqs. 5–6 and a *protective reserve*: the
//     time/money needed to finish training at the best deployment found
//     so far is never gambled on further exploration;
//   - filters candidates by the 95 % confidence interval of the expected
//     improvement to avoid unlikely probes;
//   - exploits the ML-specific *concave scale-out prior* (§II-D): once
//     two neighbouring deployments of a type show declining speed, all
//     larger scale-outs of that type are pruned;
//   - initializes with one single-node probe per instance type — the
//     cheapest possible curve anchors — instead of random points.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mlcd/internal/bo"
	"mlcd/internal/cloud"
	"mlcd/internal/fleetprior"
	"mlcd/internal/gp"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
	"mlcd/internal/rngtape"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

// Options configures HeterBO. The zero value gives the paper's method;
// the Disable* switches exist for the ablation benchmarks.
type Options struct {
	Kernel      gp.Kernel      // surrogate kernel (default Matérn 5/2)
	Acquisition bo.Acquisition // base acquisition (default EI, as in §III-C)
	Seed        int64          // rng seed for surrogate fitting / random init

	MaxSteps    int     // exploration probes after init (default 12)
	MinSteps    int     // exploration probes before convergence stop may fire (default 3)
	EITolerance float64 // stop when max EI < tol·|best| (default 0.01)
	ConfidenceZ float64 // CI filter width (default 1.96 ⇒ 95 %)

	// WarmStart seeds the search with observations from a previous run
	// of the *same job* (an interrupted search, or a re-run after the
	// user raised the budget). They cost nothing, are eligible as final
	// picks, and replace the initialization phase — the answer to the
	// exhaustive-profiling critique that "any change re-performs the
	// expensive search" (§II-C).
	WarmStart []search.Observation

	// FleetPrior, when non-nil, is the fleet meta-prior
	// (internal/fleetprior): cross-job transfer curves learned from every
	// tenant's journaled probes. When the prior holds a curve for the
	// job's model family, the surrogate starts from the fleet's
	// throughput-vs-nodes shape (with confidence-scaled variance) instead
	// of the zero mean. Unlike WarmStart observations, the prior never
	// substitutes for a measurement — it only shapes where the search
	// looks first. A nil or empty prior leaves the search bit-identical
	// to one without this field.
	FleetPrior *fleetprior.Prior

	// Tracer, when non-nil, receives one observability event per probe
	// (with its heterogeneous cost and acquisition value), per concave-
	// prior pruning, the stop decision, and the final pick — the search
	// timeline served by the daemon's trace endpoint. Events carry no
	// wall-clock data, so a seeded search traces identically every run.
	Tracer obs.EventSink

	// Metrics, when non-nil, registers the wall-clock performance
	// histograms gp_refactor_seconds and search_score_seconds. These carry
	// real elapsed time (unlike the virtual-clock trace) and exist to make
	// the surrogate engine's speed visible on /metrics.
	Metrics *obs.Registry

	// FailureRetries is how many times a deployment whose probe failed
	// for infrastructure reasons (launch storm, boot timeout) may be
	// re-probed before the search quarantines it from the candidate set.
	// A failed probe carries no signal about the deployment itself, so
	// one retry is cheap insurance against transient cloud weather;
	// repeated failures mean the launch path is broken and further spend
	// there is waste. Default 1; negative means quarantine immediately.
	FailureRetries int

	// RestartReserve inflates the protective reserve (§III-C) by this
	// fraction of the projected training time/cost, covering the
	// checkpoint/restart overhead a spot interruption would add to the
	// final run. 0 reserves nothing beyond the plain training projection.
	RestartReserve float64

	// Fidelities is the sub-sampled probing ladder (TrimTuner-style):
	// fractions in (0, 1) the search may probe at instead of a full
	// Eq. 7 run. A low probe charges roughly its fraction of the full
	// time/cost but returns a biased-low reading that only enters the
	// surrogate through the gap model — never the feasibility proof —
	// until a full probe of the same deployment confirms it. Empty (the
	// default) keeps every probe at full fidelity: the classic search,
	// bit for bit. Values outside (0, 1) are dropped.
	Fidelities []float64

	// GapPriorBeta seeds the fidelity gap model's prior slope
	// (≤ 0 → gp.DefaultPriorBeta). Only meaningful with Fidelities set.
	GapPriorBeta float64

	// Ablation switches.
	DisableCostPenalty  bool // plain EI selection (no profiling-cost division)
	DisableConcavePrior bool
	DisableReserve      bool // no protective budget/deadline reserve
	RandomInit          bool // random init instead of per-type single nodes
	InitPoints          int  // number of random init probes (default 2)
}

func (o Options) withDefaults() Options {
	if o.Kernel == nil {
		o.Kernel = gp.NewMatern52(5)
	}
	if o.Acquisition == nil {
		o.Acquisition = bo.EI{}
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 12
	}
	if o.MinSteps <= 0 {
		o.MinSteps = 3
	}
	if o.EITolerance <= 0 {
		o.EITolerance = 0.01
	}
	if o.ConfidenceZ <= 0 {
		o.ConfidenceZ = 1.96
	}
	if o.InitPoints <= 0 {
		o.InitPoints = 2
	}
	if o.FailureRetries == 0 {
		o.FailureRetries = 1
	} else if o.FailureRetries < 0 {
		o.FailureRetries = 0
	}
	if len(o.Fidelities) > 0 {
		norm := make([]float64, 0, len(o.Fidelities))
		for _, f := range o.Fidelities {
			if f > 0 && f < 1 {
				norm = append(norm, f)
			}
		}
		sort.Float64s(norm)
		dedup := norm[:0]
		for i, f := range norm {
			if i == 0 || f != norm[i-1] {
				dedup = append(dedup, f)
			}
		}
		if len(dedup) == 0 {
			dedup = nil
		}
		o.Fidelities = dedup
	}
	return o
}

// HeterBO is the paper's search method.
type HeterBO struct {
	opts Options
}

// New returns a HeterBO searcher.
func New(opts Options) *HeterBO {
	return &HeterBO{opts: opts.withDefaults()}
}

// Name implements search.Searcher.
func (h *HeterBO) Name() string { return "heterbo" }

// WithWarmStart implements search.WarmStarter: it returns a new HeterBO
// with the same options but seeded with obs (replacing any previous warm
// start). The receiver is unchanged, so a shared searcher instance can
// hand out per-job warm-started copies concurrently.
func (h *HeterBO) WithWarmStart(obs []search.Observation) search.Searcher {
	opts := h.opts
	opts.WarmStart = obs
	return New(opts)
}

// WithTracer implements search.Traceable: it returns a new HeterBO whose
// searches narrate themselves to sink. The receiver is unchanged, so the
// scheduler can attach a distinct per-job timeline to each search run.
func (h *HeterBO) WithTracer(sink obs.EventSink) search.Searcher {
	opts := h.opts
	opts.Tracer = sink
	return New(opts)
}

// WithFleetPrior implements search.FleetPriorStarter: it returns a new
// HeterBO whose surrogate starts from the fleet meta-prior. The receiver
// is unchanged; a nil or empty prior yields a bit-identical search.
func (h *HeterBO) WithFleetPrior(p *fleetprior.Prior) search.Searcher {
	opts := h.opts
	opts.FleetPrior = p
	return New(opts)
}

// state tracks one search run.
type state struct {
	job       workload.Job
	scen      search.Scenario
	cons      search.Constraints
	space     *cloud.Space
	prof      profiler.Profiler
	opts      Options
	rng       *rand.Rand
	surr      *bo.MultiFidelitySurrogate
	perf      *obs.Perf
	obs       []search.Observation
	steps     []search.Step
	spentTime time.Duration
	spentCost float64
	profiled  map[string]bool
	// lowProbed[key] is the fidelity of a deployment's pending sub-
	// sampled measurement: it feeds the surrogate (gap-corrected) but
	// not the observation list, so it can never anchor the reserve or
	// become the final pick until a full probe confirms it.
	lowProbed map[string]float64
	// failures counts infrastructure-failed probes per deployment;
	// quarantined removes a deployment from the candidate set once the
	// count exceeds Options.FailureRetries. A failed probe is a censored
	// observation: its burned time and dollars debit the TEI headroom
	// (spentTime/spentCost above) but it teaches nothing about the
	// deployment, so the key stays re-probeable until quarantined.
	failures    map[string]int
	quarantined map[string]bool
	// priorBound[type] caps explorable node counts after the concave
	// prior fires (0 = unbounded).
	priorBound map[string]int
	// cand is the flat struct-of-arrays view of the space the hot sweep
	// scans, built lazily at the first acquisition sweep (so probes that
	// predate it — init anchors, warm starts — are folded in by the seed
	// pass) and kept in sync by probe from then on. arena pools every
	// per-sweep buffer; see candspace.go.
	cand  *candSpace
	arena searchArena
	// Memory-feasibility bounds learned from OOM probes, in GiB of
	// accelerator/host capacity. A replicated-state model that OOMs on a
	// node with capacity c cannot fit any node with capacity ≤ c; a
	// sharded (ZeRO) model that OOMs on total capacity c needs a cluster
	// with more than c. One failed probe therefore prunes candidates
	// across every instance type.
	oomReplicatedCap float64
	oomShardedCap    float64
}

// nodeCapacityGiB is the memory a single node offers the training job:
// accelerator memory on GPU instances, host memory otherwise.
func nodeCapacityGiB(it cloud.InstanceType) float64 {
	if it.IsGPU() {
		return float64(it.GPUs) * it.GPUMemGiB
	}
	return it.MemGiB
}

// Search implements search.Searcher.
func (h *HeterBO) Search(j workload.Job, space *cloud.Space, scen search.Scenario, cons search.Constraints, prof profiler.Profiler) (search.Outcome, error) {
	if err := cons.Validate(scen); err != nil {
		return search.Outcome{}, err
	}
	if err := j.Validate(); err != nil {
		return search.Outcome{}, err
	}
	if space.Len() == 0 {
		return search.Outcome{}, fmt.Errorf("core: empty deployment space")
	}
	st := &state{
		job: j, scen: scen, cons: cons, space: space, prof: prof,
		opts:        h.opts,
		rng:         rngtape.New(h.opts.Seed),
		profiled:    make(map[string]bool),
		lowProbed:   make(map[string]float64),
		failures:    make(map[string]int),
		quarantined: make(map[string]bool),
		priorBound:  make(map[string]int),
	}
	st.surr = bo.NewMultiFidelitySurrogate(bo.NewSurrogate(h.opts.Kernel.Clone(), st.rng), h.opts.GapPriorBeta)
	st.perf = obs.NewPerf(h.opts.Metrics)
	st.surr.SetPerf(st.perf)
	st.emit(obs.Event{
		Kind: "search_started",
		Note: fmt.Sprintf("%s %s, warm_start=%d", h.Name(), scen, len(h.opts.WarmStart)),
	})
	// The fleet prior arms only when it actually covers the job's model
	// family: an absent or irrelevant prior must leave the surrogate's
	// zero mean untouched (and emit nothing), keeping prior-off searches
	// byte-identical to the committed trace goldens.
	if fm := newFleetMean(h.opts.FleetPrior, j, space, scen); fm != nil {
		st.surr.SetMean(fm)
		fs := h.opts.FleetPrior.Stats()
		st.emit(obs.Event{
			Kind: "fleet_prior",
			Note: fmt.Sprintf("armed: family=%s keys=%d donor_jobs=%d samples=%d", fm.family, fs.Keys, fs.Jobs, fs.Samples),
		})
	}

	stopped := st.run()
	st.emit(obs.Event{
		Kind:            "stop",
		Note:            stopped,
		CumProfileHours: st.spentTime.Hours(),
		CumProfileUSD:   st.spentCost,
	})

	// The final pick and the in-search reserve both lean on *measured*
	// throughput; a noise margin keeps the guarantee hard when reality
	// comes in a few percent slower than the probes suggested.
	bestObs, found := search.PickBest(j, scen, st.tightened(), st.spentTime, st.spentCost, st.obs)
	if bestObs.Deployment.Nodes > 0 {
		note := "constraint satisfied"
		if !found {
			note = "best effort: no observation satisfies the constraint"
		}
		e := obs.Event{
			Kind:       "picked",
			Deployment: bestObs.Deployment.String(),
			Throughput: bestObs.Throughput,
			Note:       note,
		}
		st.headroom(&e)
		st.emit(e)
	}
	return search.Outcome{
		Searcher:       h.Name(),
		Job:            j,
		Scenario:       scen,
		Constraints:    cons,
		Best:           bestObs.Deployment,
		BestThroughput: bestObs.Throughput,
		Found:          found,
		Steps:          st.steps,
		ProfileTime:    st.spentTime,
		ProfileCost:    st.spentCost,
		Stopped:        stopped,
	}, nil
}

// run executes init + BO loop, returning the stop reason.
func (st *state) run() string {
	if len(st.opts.WarmStart) > 0 {
		st.absorbWarmStart()
	} else {
		for _, d := range st.initialDeployments() {
			// Earlier init probes may already have taught a memory
			// bound that rules this one out (pruned), and the reserve
			// must admit it.
			if st.pruned(d) || !st.admissible(d) {
				continue
			}
			st.probe(d, st.screenFid(), 0, "init")
		}
		// A censored init probe carries no signal about its deployment —
		// and a censored *anchor* leaves its whole instance type
		// unmodeled, which the CI/TEI filters then rule out on pure
		// extrapolation. Retry each failed anchor once (within the
		// FailureRetries allowance) so type coverage survives a fault.
		for _, d := range st.initialDeployments() {
			if st.failures[d.Key()] == 0 || st.profiled[d.Key()] || st.pruned(d) || !st.admissible(d) {
				continue
			}
			st.probe(d, st.screenFid(), 0, "init-retry")
		}
	}
	// With a ladder armed the anchors are sub-sampled hints, so an empty
	// observation list alone does not mean the init failed.
	if len(st.obs) == 0 && len(st.lowProbed) == 0 {
		return "no admissible initial probe"
	}

	if st.surr.Len() == 0 {
		// Every init probe OOMed: a large sharded model fits no single
		// node. Anchor each type at its feasibility frontier instead.
		if st.job.Model.ShardedStates {
			st.anchorSharded()
		} else {
			// Replicated states that fit nowhere cannot be helped by
			// more nodes; probe the largest-capacity node as a last try.
			if cand, ok := st.cheapestCandidate(); ok {
				st.probe(cand, 1, 0, "feasibility-escalate")
			}
		}
	}
	if st.surr.Len() == 0 {
		return "no feasible deployment found"
	}

	for explored := 0; explored < st.opts.MaxSteps; explored++ {
		st.updatePrior()
		cand, score, ok := st.nextCandidate()
		if !ok {
			st.confirmPending()
			return "no admissible candidate"
		}
		// Convergence: the surrogate works in log-objective, so EI is an
		// expected log-ratio gain; stop when even the most promising
		// candidate offers less than ~EITolerance×100 % improvement.
		if explored >= st.opts.MinSteps && score.maxRawEI < st.opts.EITolerance {
			st.confirmPending()
			return "expected improvement below tolerance"
		}
		st.probe(cand, score.fid, score.score, score.note)
	}
	st.confirmPending()
	return "step cap reached"
}

// confirmPending spends full probes on the pending sub-sampled readings
// that could still beat the feasible incumbent, so the final pick —
// which only trusts full measurements — gets to see them. Without this
// sweep a search that stops right after a promising screen would fall
// back to a best-effort pick its own screen had already beaten. Each
// confirmation can only raise the incumbent, so the loop shrinks its
// own candidate set and the pending count bounds it.
func (st *state) confirmPending() {
	for range len(st.lowProbed) {
		// With no usable full measurement at all, the first confirmation
		// is the difference between an answer and "nothing runnable".
		needAnchor := true
		for _, o := range st.obs {
			if o.Throughput > 0 {
				needAnchor = false
				break
			}
		}
		bestObj, haveFeasible := st.confirmedIncumbentObjective()
		var (
			best   cloud.Deployment
			bestMu float64
			found  bool
		)
		// Ungated fallback: the best-mean pending, kept in reserve so an
		// anchorless sweep whose every candidate fails the gates still
		// produces one full measurement instead of "nothing runnable".
		var (
			fbBest  cloud.Deployment
			fbMu    float64
			fbFound bool
		)
		for i := 0; i < st.space.Len(); i++ {
			d := st.space.At(i)
			if _, pending := st.lowProbed[d.Key()]; !pending || st.profiled[d.Key()] || st.pruned(d) {
				continue
			}
			mu, _ := st.surr.Predict(d)
			if !fbFound || mu > fbMu {
				fbBest, fbMu, fbFound = d, mu, true
			}
			// Contention is judged at the corrected MEAN against the
			// confirmed incumbent, mirroring the exploitation half of
			// the loop's stop rule: a pending whose own best estimate
			// does not beat what a full probe already measured has
			// negative expected value — the confirmation's cost is
			// certain, the upside is not. Optimism-based contention
			// here turned the sweep into a second exploration phase
			// at full price.
			if haveFeasible && mu <= bestObj {
				continue
			}
			// Affordability is judged at the corrected MEAN, not the
			// optimistic bound: a candidate whose own best estimate
			// already breaks the remaining deadline/budget teaches
			// nothing by being confirmed — and each such confirm
			// erodes the headroom the eventual pick depends on. The
			// gate applies even to the anchoring confirm: in the budget
			// scenario the best-mean pending is the biggest deployment,
			// and anchoring on a predictably-unaffordable one starts a
			// descending chain of full probes that devours the budget.
			if !st.teiPositiveAt(d, 1, mu) || !st.admissibleAt(d, 1) {
				continue
			}
			if !found || mu > bestMu {
				best, bestMu, found = d, mu, true
			}
		}
		if !found {
			if !needAnchor || !fbFound {
				return
			}
			best = fbBest
		}
		st.probe(best, 1, 0, "confirm")
	}
}

// emit forwards one event to the configured tracer, if any.
func (st *state) emit(e obs.Event) {
	if st.opts.Tracer != nil {
		st.opts.Tracer.Emit(e)
	}
}

// headroom annotates e with the remaining constraint slack (Eqs. 5–6):
// hours to the user's deadline, or dollars to the budget, after the
// profiling spend so far. The unlimited scenario has no binding
// constraint and leaves e untouched.
func (st *state) headroom(e *obs.Event) {
	switch st.scen {
	case search.CheapestWithDeadline:
		e.HeadroomHours = (st.cons.Deadline - st.spentTime).Hours()
	case search.FastestWithBudget:
		e.HeadroomUSD = st.cons.Budget - st.spentCost
	}
}

// absorbWarmStart folds previously measured observations in at zero
// profiling cost, including what their OOM probes taught about memory.
// Every usable observation reaches the surrogate in one batch, so the
// warm start pays one hyperparameter refit however many points it
// replays.
func (st *state) absorbWarmStart() {
	var ds []cloud.Deployment
	var ys []float64
	var at []int // st.obs index of each batched observation
	for _, o := range st.opts.WarmStart {
		key := o.Deployment.Key()
		if st.profiled[key] || o.Deployment.Nodes < 1 {
			continue
		}
		st.profiled[key] = true
		st.obs = append(st.obs, o)
		if o.Throughput <= 0 {
			cap := nodeCapacityGiB(o.Deployment.Type)
			if st.job.Model.ShardedStates {
				if total := cap * float64(o.Deployment.Nodes); total > st.oomShardedCap {
					st.oomShardedCap = total
				}
			} else if cap > st.oomReplicatedCap {
				st.oomReplicatedCap = cap
			}
			continue
		}
		ds = append(ds, o.Deployment)
		ys = append(ys, math.Log(search.Objective(st.scen, o.Deployment, o.Throughput)))
		at = append(at, len(st.obs)-1)
	}
	// A failed refit still leaves every absorbed pair conditioned, and
	// the next probe refits again, so only the skipped pairs need undoing.
	skipped, _ := st.surr.ObserveAll(ds, ys)
	// Drop the observations the surrogate could not condition, last
	// first so earlier indices stay valid; warm starts are advisory.
	for k := len(skipped) - 1; k >= 0; k-- {
		i := at[skipped[k]]
		st.obs = append(st.obs[:i], st.obs[i+1:]...)
	}
}

// anchorSharded is the sharded-model analogue of the single-node init:
// every instance type gets one probe at the smallest node count that the
// learned memory bound still allows, doubling per type on each failure.
// One feasible observation per type gives the surrogate the same
// type-coverage the single-node sweep gives models that fit one node.
func (st *state) anchorSharded() {
	types := st.space.Types()
	feasible := make(map[string]bool, len(types))
	lastN := make(map[string]int, len(types))
	count := 0
	for round := 0; round < 4; round++ {
		// One pass anchors every type once; later passes only run while
		// fewer than two columns have a real observation — after that,
		// cost-aware BO is a better judge of where to spend probes than
		// blanket re-anchoring.
		if round > 0 && count >= 2 {
			return
		}
		progressed := false
		for _, t := range types {
			if feasible[t.Name] {
				continue
			}
			n, ok := st.anchorNodes(t, lastN[t.Name])
			if !ok {
				continue
			}
			lastN[t.Name] = n
			d := cloud.Deployment{Type: t, Nodes: n}
			r := st.probe(d, 1, 0, "feasibility-anchor")
			progressed = true
			if !r.Failed && r.Throughput > 0 {
				feasible[t.Name] = true
				count++
			}
		}
		if !progressed {
			return
		}
	}
}

// anchorNodes picks the next node count to try for type t: beyond both
// the learned capacity bound and a doubling of the last attempt. The
// doubling is clamped to the space's ceiling — when it overshoots, the
// largest allowed count is the type's only remaining chance at
// feasibility and must be tried before the type is written off.
func (st *state) anchorNodes(t cloud.InstanceType, last int) (int, bool) {
	minN := last*2 + 1
	if cap := nodeCapacityGiB(t); cap > 0 {
		if byBound := int(st.oomShardedCap/cap) + 1; byBound > minN {
			minN = byBound
		}
	}
	if max := st.space.MaxNodes(t.Name); minN > max {
		minN = max
	}
	for n := minN; n <= st.space.MaxNodes(t.Name); n++ {
		d := cloud.Deployment{Type: t, Nodes: n}
		if st.profiled[d.Key()] || st.pruned(d) || !st.admissible(d) {
			continue
		}
		return n, true
	}
	return 0, false
}

// cheapestCandidate returns the admissible, unpruned, unprofiled
// deployment with the lowest profiling cost.
func (st *state) cheapestCandidate() (cloud.Deployment, bool) {
	var best cloud.Deployment
	bestCost := 0.0
	found := false
	for i := 0; i < st.space.Len(); i++ {
		d := st.space.At(i)
		if st.profiled[d.Key()] || st.pruned(d) || !st.admissible(d) {
			continue
		}
		c := profiler.Cost(d)
		if !found || c < bestCost {
			best, bestCost, found = d, c, true
		}
	}
	return best, found
}

// initialDeployments returns the cheap anchors of §III-C: one single-node
// probe per instance type. When the space holds a single type (the
// paper's scale-out-only studies, Figs. 9–11), the extremes are bracketed
// instead so the concave prior has both ends of the curve. The RandomInit
// ablation reproduces conventional BO's random start.
func (st *state) initialDeployments() []cloud.Deployment {
	if st.opts.RandomInit {
		var out []cloud.Deployment
		for i := 0; i < st.opts.InitPoints && st.space.Len() > 0; i++ {
			out = append(out, st.space.At(st.rng.Intn(st.space.Len())))
		}
		return out
	}
	types := st.space.Types()
	if len(types) == 1 {
		t := types[0]
		lo, hi := st.space.MaxNodes(t.Name), 0
		for i := 0; i < st.space.Len(); i++ {
			n := st.space.At(i).Nodes
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		// Bracket at half the range: enough to anchor the concave
		// prior's right flank without paying for the most expensive
		// probe in the space.
		loD := cloud.Deployment{Type: t, Nodes: lo}
		hiD := cloud.Deployment{Type: t, Nodes: st.affordableBracket(t, (lo+hi+1)/2)}
		if hiD.Nodes <= loD.Nodes {
			return []cloud.Deployment{loD}
		}
		return []cloud.Deployment{loD, hiD}
	}
	out := make([]cloud.Deployment, 0, len(types))
	for _, t := range types {
		out = append(out, cloud.Deployment{Type: t, Nodes: 1})
	}
	return out
}

// affordableBracket shrinks the high-end bracket probe until its
// profiling cost is a small share (≤10 %) of the remaining budget or
// deadline, in the spirit of heterogeneous-cost awareness.
func (st *state) affordableBracket(t cloud.InstanceType, hi int) int {
	for n := hi; n > 1; n = n * 3 / 4 {
		d := cloud.Deployment{Type: t, Nodes: n}
		switch st.scen {
		case search.CheapestWithDeadline:
			if profiler.Duration(n) <= st.cons.Deadline/10 {
				return n
			}
		case search.FastestWithBudget:
			if profiler.Cost(d) <= st.cons.Budget/10 {
				return n
			}
		default:
			return n
		}
	}
	return 1
}

// probe profiles d at fidelity fid (1 = the classic full probe) and
// folds the result into every piece of state. It returns the raw
// profiling result so callers (feasibility anchoring) can tell a real
// measurement from a censored failure.
func (st *state) probe(d cloud.Deployment, fid, acq float64, note string) profiler.Result {
	r := profiler.ProbeAt(st.prof, st.job, d, fid)
	key := d.Key()
	// ci is d's canonical slot in the flat candidate view: -1 before the
	// view exists (init and warm-start probes — the view's seed pass
	// covers those) or when d lies outside the space. Every mask the
	// acquisition sweep reads is updated here, next to the map it mirrors.
	ci := -1
	if st.cand != nil {
		if i, ok := st.cand.idxByKey[key]; ok {
			ci = i
		}
	}
	// Trust the fidelity the profiler DELIVERED, not the one requested:
	// a profiler without sub-sampling support silently runs (and bills)
	// a full probe, and the books must follow the bill.
	f := profiler.Fid(r.Fidelity)
	// A sub-sampled success is a biased hint: it informs the surrogate
	// through the gap model but never the observation list, so the
	// reserve and the final pick only ever lean on full measurements.
	// An OOM at low fidelity, by contrast, IS a full measurement — the
	// crash happens during model build, before sub-sampling matters.
	low := !r.Failed && f < 1 && r.Throughput > 0
	// A failed probe is censored, not free: whatever the launch retries,
	// boot hang, or partial run burned still debits the TEI headroom.
	st.spentTime += r.Duration
	st.spentCost += r.Cost
	if !r.Failed {
		if low {
			st.lowProbed[key] = f
			if ci >= 0 {
				st.cand.pending[ci] = true
			}
		} else {
			st.profiled[key] = true
			if ci >= 0 {
				st.cand.profiled[ci] = true
			}
			st.obs = append(st.obs, search.Observation{Deployment: d, Throughput: r.Throughput})
		}
	}
	stepFid := 0.0
	if f < 1 {
		stepFid = f
	}
	st.steps = append(st.steps, search.Step{
		Index:          len(st.steps) + 1,
		Deployment:     d,
		Throughput:     r.Throughput,
		ProfileTime:    r.Duration,
		ProfileCost:    r.Cost,
		CumProfileTime: st.spentTime,
		CumProfileCost: st.spentCost,
		Acquisition:    acq,
		Failed:         r.Failed,
		Fidelity:       stepFid,
		Note:           note,
	})
	quarantinedNow := false
	var gapUp *bo.GapUpdate
	defer func() {
		// Declared first so it runs last: a promotion's gap verdict
		// trails both the probe event and any quarantine note.
		if gapUp != nil {
			st.emit(obs.Event{
				Kind:        "fidelity_gap",
				Deployment:  d.String(),
				Fidelity:    gapUp.LowFidelity,
				GapResidual: gapUp.Residual,
				Note: fmt.Sprintf("promoted %s: gap observed %.4f predicted %.4f beta[%s]=%.4f",
					d.String(), gapUp.Observed, gapUp.Predicted, gapUp.Key, gapUp.Beta),
			})
		}
	}()
	defer func() {
		// Declared second so it runs after the probe event below: the
		// quarantine verdict follows the probe that triggered it.
		if quarantinedNow {
			st.emit(obs.Event{
				Kind:       "quarantined",
				Deployment: d.String(),
				Note:       fmt.Sprintf("%d failed probes", st.failures[key]),
			})
		}
	}()
	defer func() {
		// Emit after the failure/OOM notes are final, so the trace event
		// carries exactly what the Outcome's step table will say.
		e := obs.Event{
			Kind:            "probe",
			Step:            len(st.steps),
			Deployment:      d.String(),
			Throughput:      r.Throughput,
			ProfileHours:    r.Duration.Hours(),
			ProfileUSD:      r.Cost,
			CumProfileHours: st.spentTime.Hours(),
			CumProfileUSD:   st.spentCost,
			Acquisition:     acq,
			Fidelity:        stepFid,
			Note:            st.steps[len(st.steps)-1].Note,
		}
		st.headroom(&e)
		st.emit(e)
	}()
	if r.Failed {
		// Infrastructure failure: no signal about the deployment, so no
		// observation is recorded and the key stays eligible for a
		// retry — until repeated failures quarantine it.
		st.failures[key]++
		if st.failures[key] > st.opts.FailureRetries {
			st.quarantined[key] = true
			if ci >= 0 {
				st.cand.quarantined[ci] = true
				st.cand.anyQuarantined = true
			}
			quarantinedNow = true
			st.steps[len(st.steps)-1].Note += " (probe failed; quarantined)"
		} else {
			st.steps[len(st.steps)-1].Note += " (probe failed)"
		}
		return r
	}
	if r.Throughput <= 0 {
		// OOM: learn the memory-feasibility boundary instead of
		// modeling it with the GP.
		cap := nodeCapacityGiB(d.Type)
		if st.job.Model.ShardedStates {
			if total := cap * float64(d.Nodes); total > st.oomShardedCap {
				st.oomShardedCap = total
			}
		} else if cap > st.oomReplicatedCap {
			st.oomReplicatedCap = cap
		}
		return r
	}
	// The surrogate models log-objective: scale-out and scale-up act
	// multiplicatively on throughput, so the log makes their effects
	// additive and lets the GP extrapolate growth trends sanely.
	y := math.Log(search.Objective(st.scen, d, r.Throughput))
	up, err := st.surr.ObserveAt(d, y, f)
	if err != nil {
		// A duplicate-feature observation can make the GP ill-
		// conditioned; the search can continue on prior observations.
		st.steps[len(st.steps)-1].Note += " (surrogate: " + err.Error() + ")"
	}
	if up != nil {
		// This full probe confirmed a pending low-fidelity measurement:
		// the exact pair just taught the gap model.
		delete(st.lowProbed, key)
		if ci >= 0 {
			st.cand.pending[ci] = false
		}
		gapUp = up
	}
	return r
}

// obsByNodes sorts observations by ascending node count. A concrete
// sort.Interface spares updatePrior sort.Slice's per-call reflection
// Swapper; both run the standard library's pdqsort, whose comparisons
// and swaps depend only on Less results, so the resulting order —
// including equal-node ties — is unchanged.
type obsByNodes []search.Observation

func (s obsByNodes) Len() int           { return len(s) }
func (s obsByNodes) Less(i, j int) bool { return s[i].Deployment.Nodes < s[j].Deployment.Nodes }
func (s obsByNodes) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// updatePrior applies the concave scale-out prior: for each type, find
// the smallest profiled n₂ whose throughput declined versus the next
// profiled point below it, and prune everything above n₂.
func (st *state) updatePrior() {
	if st.opts.DisableConcavePrior {
		return
	}
	byType := make(map[string][]search.Observation)
	for _, o := range st.obs {
		if o.Throughput > 0 {
			byType[o.Deployment.Type.Name] = append(byType[o.Deployment.Type.Name], o)
		}
	}
	const noiseMargin = 0.98 // tolerate ~2 % measurement noise
	// Type names are visited in sorted order so that trace events fire
	// deterministically when several types tighten in one update.
	names := make([]string, 0, len(byType))
	for name := range byType {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		list := byType[name]
		sort.Sort(obsByNodes(list))
		for i := 1; i < len(list); i++ {
			if list[i].Throughput < list[i-1].Throughput*noiseMargin {
				bound := list[i].Deployment.Nodes
				if cur, ok := st.priorBound[name]; !ok || bound < cur {
					st.priorBound[name] = bound
					st.emit(obs.Event{
						Kind: "prior-pruned",
						Note: fmt.Sprintf("concave prior caps %s at %d nodes", name, bound),
					})
				}
				break
			}
		}
	}
}

// candidateScore carries the pieces of one candidate's evaluation.
type candidateScore struct {
	score    float64 // cost-penalized acquisition (what is maximized)
	rawEI    float64 // unpenalized EI of the selected candidate
	maxRawEI float64 // largest unpenalized EI over ALL candidates — the
	// convergence test must look at this, or a promising-but-expensive
	// candidate could never veto a premature "converged" verdict
	fid  float64 // fidelity the winning probe should run at (1 = full)
	note string
}

// fullOnly is the fidelity menu of the classic search: full probes.
var fullOnly = []float64{1}

// fidelityOptions lists the fidelities d may be probed at, descending
// (full first, so ties in score resolve toward the real measurement).
// A deployment with a pending low-fidelity reading has exactly one
// refinement: the confirming full probe. Intermediate rungs would
// re-pay the screen without unlocking the pick — the screen's verdict
// (worth confirming or not) doesn't sharpen enough to cover a second
// sub-sampled bill.
func (st *state) fidelityOptions(d cloud.Deployment) []float64 {
	if len(st.opts.Fidelities) == 0 {
		return fullOnly
	}
	if _, pending := st.lowProbed[d.Key()]; pending {
		return fullOnly
	}
	out := make([]float64, 0, len(st.opts.Fidelities)+1)
	out = append(out, 1)
	for i := len(st.opts.Fidelities) - 1; i >= 0; i-- {
		out = append(out, st.opts.Fidelities[i])
	}
	return out
}

// screenFid is the fidelity init anchors run at: the cheapest rung of
// the ladder when one is armed, else full. Anchors only seed the
// surrogate — the pick never leans on them directly — so they are the
// first place the heterogeneous-cost play pays off.
func (st *state) screenFid() float64 {
	if len(st.opts.Fidelities) == 0 {
		return 1
	}
	return st.opts.Fidelities[0]
}

// nextCandidate scans the admissible space and returns the best-scoring
// unprofiled deployment. The acquisition is *constrained* (§III-C,
// Eqs. 5–6): improvement is measured against the best observation that
// satisfies the user constraint, and a candidate only qualifies if even
// its optimistic (95 % upper-bound) throughput would leave positive TEI
// headroom — enough deadline/budget for the probe plus training there.
func (st *state) nextCandidate() (cloud.Deployment, candidateScore, bool) {
	if st.surr.Len() == 0 {
		return cloud.Deployment{}, candidateScore{}, false
	}
	start := time.Now()
	d, score, ok := st.scanCandidates()
	st.perf.ObserveSearchScore(time.Since(start))
	return d, score, ok
}

// ensureCand builds the flat candidate view on first use and seeds its
// masks from the bookkeeping maps, folding in every probe that predates
// the view (init anchors, warm starts, feasibility anchoring). From here
// on probe maintains the masks incrementally.
func (st *state) ensureCand() {
	if st.cand != nil {
		return
	}
	cs := newCandSpace(st.space)
	for i, key := range cs.keys {
		ci := cs.canon[i]
		if st.profiled[key] {
			cs.profiled[ci] = true
		}
		if _, ok := st.lowProbed[key]; ok {
			cs.pending[ci] = true
		}
		if len(st.quarantined) > 0 && st.quarantined[key] {
			cs.quarantined[ci] = true
			cs.anyQuarantined = true
		}
	}
	st.cand = cs
}

// sweepMenu is the fidelity menu every pass-1 survivor shares: survivors
// are never pending (the pending branch of fidelityOptions cannot fire),
// so one menu — full first, then the ladder descending — serves the
// whole sweep from the arena instead of a per-candidate allocation.
func (st *state) sweepMenu() []float64 {
	if len(st.opts.Fidelities) == 0 {
		return fullOnly
	}
	menu := append(st.arena.menu[:0], 1)
	for i := len(st.opts.Fidelities) - 1; i >= 0; i-- {
		menu = append(menu, st.opts.Fidelities[i])
	}
	st.arena.menu = menu
	return menu
}

// reserveGate is admissibleAt with its sweep-invariant parts hoisted:
// the tightened constraint, the profiling spend, and the reserve pick
// (one PickBest over the observations — formerly re-run per candidate
// per fidelity) are fixed for a whole sweep, leaving only the probe's
// own bill per call. The subtraction order matches admissibleAt's
// left-to-right evaluation, so every admit verdict is bit-identical.
type reserveGate struct {
	open bool // DisableReserve or an unconstrained scenario: admit all
	scen search.Scenario

	deadlineLeft time.Duration // tightened deadline − spentTime
	reserveT     time.Duration
	haveT        bool

	budgetLeft float64 // tightened budget − spentCost
	reserveC   float64
	haveC      bool
}

// reserveGateNow captures the sweep's reserve state.
func (st *state) reserveGateNow() reserveGate {
	g := reserveGate{scen: st.scen}
	if st.opts.DisableReserve {
		g.open = true
		return g
	}
	tight := st.tightened()
	switch st.scen {
	case search.CheapestWithDeadline:
		g.deadlineLeft = tight.Deadline - st.spentTime
		g.reserveT, g.haveT = st.reserveTrainTime()
	case search.FastestWithBudget:
		g.budgetLeft = tight.Budget - st.spentCost
		g.reserveC, g.haveC = st.reserveTrainCost()
	default:
		g.open = true
	}
	return g
}

// admits reports whether probing a deployment of the given node count
// and $/hour at fidelity f leaves the reserve intact — admissibleAt,
// minus the per-call recomputation. hourly is the precomputed
// HourlyCost() (the same PricePerHr·n multiply CostAt performed per
// call, so the probe bill hourly·DurationAt.Hours() is bit-identical).
func (g reserveGate) admits(nodes int, hourly, f float64) bool {
	if g.open {
		return true
	}
	switch g.scen {
	case search.CheapestWithDeadline:
		headroom := g.deadlineLeft - profiler.DurationAt(nodes, f)
		if headroom <= 0 {
			return false
		}
		if g.haveT && headroom < g.reserveT {
			return false
		}
		return true
	case search.FastestWithBudget:
		headroom := g.budgetLeft - hourly*profiler.DurationAt(nodes, f).Hours()
		if headroom <= 0 {
			return false
		}
		if g.haveC && headroom < g.reserveC {
			return false
		}
		return true
	default:
		return true
	}
}

// scanCandidates is the acquisition sweep over the flat candidate view:
// mask filter → gather → one batched posterior → serial argmax. It
// decides exactly what a three-pass loop (per-candidate map keys,
// per-candidate feature encodings, per-candidate reserve picks, a
// per-candidate Predict) decides:
//
//   - pass 1's filters are pure state reads, so evaluating them from the
//     masks — which probe keeps bit-for-bit in sync with the maps — and
//     hoisting the reserve gate's sweep-invariant pieces reorders no
//     floating-point operation that reaches a verdict;
//   - pass 2 gathers the precomputed cloud.Features rows (the same bits
//     Predict re-encodes per call) and takes ONE batched posterior,
//     which gp.PredictMatrix guarantees bit-identical to the per-query
//     PredictInto loop;
//   - pass 3 walks survivors in space-index order applying the CI
//     filter, TEI headroom, and strict-greater argmax in the original
//     comparison sequence. Survivors are never pending, so GapStd — a
//     map lookup behind a fresh Sprintf key — is identically zero and
//     sigma is used as-is.
//
// The selected probe, its score, and maxRawEI are therefore byte-
// identical to the pre-flattening sweep; the conformance trace goldens
// and the SoA property test pin this.
func (st *state) scanCandidates() (cloud.Deployment, candidateScore, bool) {
	st.ensureCand()
	cs, ar := st.cand, &st.arena
	bestObj, haveFeasible := st.feasibleIncumbentObjective()
	if !haveFeasible {
		// Nothing feasible yet: every candidate is an improvement, so
		// anchor EI below everything observed.
		bestObj = st.surr.BestObserved() - 3
	}
	menu := st.sweepMenu()
	// The reserve filter admits a candidate if its *cheapest* offered
	// fidelity fits: what can only be afforded sub-sampled stays in
	// play, and the per-fidelity reserve check in pass 3 settles the rest.
	cheapest := menu[len(menu)-1]
	gate := st.reserveGateNow()
	cs.refreshTypeBounds(st.priorBound)
	sharded := st.job.Model.ShardedStates

	// Pass 1: mask filter (profiled/pending/quarantined/OOM bounds/
	// concave prior — the former pruned()), then the reserve gate.
	candIdx := ar.candIdx[:0]
	for i := 0; i < cs.n; i++ {
		ci := cs.canon[i]
		// A pending screen already informs the surrogate through the gap
		// model; re-probing it buys little. Only the confirmation sweep
		// may spend the full probe, and only if the point still contends.
		if cs.profiled[ci] || cs.pending[ci] {
			continue
		}
		if cs.anyQuarantined && cs.quarantined[ci] {
			continue
		}
		if sharded {
			if cs.capTotal[i] <= st.oomShardedCap {
				continue
			}
		} else if cs.capGiB[i] <= st.oomReplicatedCap {
			continue
		}
		if b := cs.typeBound[cs.typeIdx[i]]; b > 0 && cs.nodes[i] > b {
			continue
		}
		if !gate.admits(cs.nodes[i], cs.hourly[i], cheapest) {
			continue
		}
		candIdx = append(candIdx, i)
	}
	ar.candIdx = candIdx
	if len(candIdx) == 0 {
		return cloud.Deployment{}, candidateScore{}, false
	}

	// Pass 2: gather the survivors' feature rows and take one batched
	// posterior over the whole block.
	m := len(candIdx)
	ar.feats = growFloats(ar.feats, m*cs.dim)
	for c, i := range candIdx {
		copy(ar.feats[c*cs.dim:(c+1)*cs.dim], cs.feats[i*cs.dim:(i+1)*cs.dim])
	}
	ar.mu = growFloats(ar.mu, m)
	ar.sigma = growFloats(ar.sigma, m)
	st.surr.PredictMatrix(ar.feats, cs.dim, ar.mu, ar.sigma, &ar.scratch)

	// Pass 3: serial argmax in space-index order.
	var (
		best      cloud.Deployment
		bestScore candidateScore
		found     bool
	)
	for c, i := range candIdx {
		d := cs.deps[i]
		sig := ar.sigma[c]
		optimistic := ar.mu[c] + st.opts.ConfidenceZ*sig
		// 95 % CI filter (§III-C stop condition): skip candidates whose
		// optimistic bound cannot beat the feasible incumbent.
		if optimistic <= bestObj {
			continue
		}
		// TEI headroom (Eqs. 5–6) and the protective reserve, per offered
		// fidelity: a sub-sampled probe is cheaper but commits the search
		// to a confirming full probe before its point can be picked, so
		// its TEI check prices probe AND confirmation.
		passing := ar.passing[:0]
		for _, f := range menu {
			if st.teiPositiveAt(d, f, optimistic) && gate.admits(cs.nodes[i], cs.hourly[i], f) {
				passing = append(passing, f)
			}
		}
		ar.passing = passing
		if len(passing) == 0 {
			continue
		}
		ei := st.opts.Acquisition.Score(ar.mu[c], sig, bestObj)
		if ei <= 0 {
			continue
		}
		if ei > bestScore.maxRawEI {
			bestScore.maxRawEI = ei
		}
		for _, f := range passing {
			// √f discounts the information a short burst delivers; the
			// heterogeneous penalty divides by what the probe costs. At
			// f = 1 both reduce exactly to the paper's Eqs. 7–8 score.
			score := ei * math.Sqrt(f)
			note := "explore"
			if !st.opts.DisableCostPenalty {
				score = score / st.penaltyFlat(cs.nodes[i], cs.hourly[i], f)
				note = "explore/cost-aware"
			}
			if f < 1 {
				note = "explore/low-fidelity"
			}
			if !found || score > bestScore.score {
				best = d
				bestScore.score, bestScore.rawEI, bestScore.fid, bestScore.note = score, ei, f, note
				found = true
			}
		}
	}
	return best, bestScore, found
}

// confirmedIncumbentObjective returns the largest log-objective among
// full observations that satisfy the scenario constraint; found is
// false when none do (every feasible candidate is then an improvement).
func (st *state) confirmedIncumbentObjective() (float64, bool) {
	best, found := 0.0, false
	// Feasibility here must match the final pick's (safety-margined)
	// judgement: an observation the pick would reject must not act as
	// the incumbent and suppress exploration.
	tight := st.tightened()
	for _, o := range st.obs {
		if o.Throughput <= 0 {
			continue
		}
		switch st.scen {
		case search.CheapestWithDeadline:
			if st.spentTime+search.EstTrainTime(st.job, o.Throughput) > tight.Deadline {
				continue
			}
		case search.FastestWithBudget:
			if st.spentCost+search.EstTrainCost(st.job, o.Deployment, o.Throughput) > tight.Budget {
				continue
			}
		}
		if v := math.Log(search.Objective(st.scen, o.Deployment, o.Throughput)); !found || v > best {
			best, found = v, true
		}
	}
	return best, found
}

// feasibleIncumbentObjective is the incumbent the exploration loop
// anchors EI on: the confirmed incumbent, raised by any pending screen
// whose estimate beats it.
func (st *state) feasibleIncumbentObjective() (float64, bool) {
	best, found := st.confirmedIncumbentObjective()
	tight := st.tightened()
	// A pending screen is a provisional incumbent for the EI anchor: its
	// gap-corrected posterior mean is the best current estimate of the
	// value its confirmation would land on. Without this a ladder search
	// has no incumbent until the final sweep — EI stays anchored at the
	// floor and the loop screens the whole space.
	if len(st.lowProbed) > 0 && st.surr.Len() > 0 {
		st.ensureCand()
		// The pending mask mirrors lowProbed for every in-space key and
		// follows space-index order, so this visits exactly the
		// deployments the space scan with per-candidate keys visited.
		for i := 0; i < st.cand.n; i++ {
			if !st.cand.pending[st.cand.canon[i]] {
				continue
			}
			d := st.cand.deps[i]
			mu, _ := st.surr.Predict(d)
			// Invert the log-objective back to throughput for the same
			// feasibility judgement the full observations get.
			thr := math.Exp(mu)
			if st.scen == search.CheapestWithDeadline {
				thr *= d.HourlyCost()
			}
			switch st.scen {
			case search.CheapestWithDeadline:
				if st.spentTime+search.EstTrainTime(st.job, thr) > tight.Deadline {
					continue
				}
			case search.FastestWithBudget:
				if st.spentCost+search.EstTrainCost(st.job, d, thr) > tight.Budget {
					continue
				}
			}
			if !found || mu > best {
				best, found = mu, true
			}
		}
	}
	return best, found
}

// teiPositiveAt evaluates the True Expected Improvement headroom of
// Eqs. 5–6 at the candidate's optimistic log-objective value: profiling
// d at fidelity f and then training there must fit the remaining
// deadline (Eq. 5) or budget (Eq. 6). A sub-sampled probe additionally
// prices the confirming full probe its point would need before the
// final pick may use it — a low-fidelity detour must never consume the
// headroom its own confirmation requires. At f = 1 this is exactly the
// paper's check.
func (st *state) teiPositiveAt(d cloud.Deployment, f, optimisticLogObj float64) bool {
	optimistic := math.Exp(optimisticLogObj)
	switch st.scen {
	case search.CheapestWithDeadline:
		thr := optimistic * d.HourlyCost() // objective is thr/$-rate
		tt := search.EstTrainTime(st.job, thr)
		probeT := profiler.DurationAt(d.Nodes, f)
		if f < 1 {
			probeT += profiler.Duration(d.Nodes)
		}
		return st.spentTime+probeT+tt <= st.cons.Deadline
	case search.FastestWithBudget:
		tc := search.EstTrainCost(st.job, d, optimistic)
		probeC := profiler.CostAt(d, f)
		if f < 1 {
			probeC += profiler.Cost(d)
		}
		return st.spentCost+probeC+tc <= st.cons.Budget
	default:
		return true
	}
}

// penaltyAt is the heterogeneous exploration cost of probing d at
// fidelity f (Eqs. 7–8 scaled by the sub-sample): profiling time for
// the time-constrained scenarios, profiling dollars when a monetary
// budget rules.
func (st *state) penaltyAt(d cloud.Deployment, f float64) float64 {
	return st.penaltyFlat(d.Nodes, d.HourlyCost(), f)
}

// penaltyFlat is penaltyAt on the flat columns: CostAt(d, f) expands to
// HourlyCost()·DurationAt(...).Hours(), so the precomputed hourly rate
// reproduces it multiply for multiply.
func (st *state) penaltyFlat(nodes int, hourly, f float64) float64 {
	switch st.scen {
	case search.FastestWithBudget:
		return hourly * profiler.DurationAt(nodes, f).Hours()
	default:
		return profiler.DurationAt(nodes, f).Hours()
	}
}

// pruned applies the quarantine list, the concave prior bound, and the
// learned OOM boundary.
func (st *state) pruned(d cloud.Deployment) bool {
	// Checked only when non-empty: pruned runs per candidate per step,
	// and Key() builds a string — a fault-free search (the common case)
	// must not pay for quarantine lookups that can never hit.
	if len(st.quarantined) > 0 && st.quarantined[d.Key()] {
		return true
	}
	cap := nodeCapacityGiB(d.Type)
	if st.job.Model.ShardedStates {
		if cap*float64(d.Nodes) <= st.oomShardedCap {
			return true
		}
	} else if cap <= st.oomReplicatedCap {
		return true
	}
	if bound, ok := st.priorBound[d.Type.Name]; ok && d.Nodes > bound {
		return true
	}
	return false
}

// admissible is the protective reserve (§III-C): after paying to profile
// d, there must still be enough deadline/budget left to *fall back* and
// finish training at an already-observed deployment. This is the TEI
// headroom of Eqs. 5–6 evaluated conservatively. The reserve only binds
// once a constraint-satisfying fallback exists — before that, exploring
// is the only route to feasibility and only the probe itself must fit.
func (st *state) admissible(d cloud.Deployment) bool {
	return st.admissibleAt(d, 1)
}

// admissibleCheapest applies the reserve at the cheapest fidelity the
// search may offer d — the widest gate a candidate can pass through.
func (st *state) admissibleCheapest(d cloud.Deployment) bool {
	opts := st.fidelityOptions(d)
	return st.admissibleAt(d, opts[len(opts)-1])
}

// admissibleAt is admissible priced at fidelity f: the probe's bill
// shrinks with f (its confirming full probe is the TEI check's concern,
// not the reserve's — the reserve only guards the fallback already in
// hand, and a low probe alone never erodes more than it costs).
func (st *state) admissibleAt(d cloud.Deployment, f float64) bool {
	if st.opts.DisableReserve {
		return true
	}
	tight := st.tightened()
	switch st.scen {
	case search.CheapestWithDeadline:
		headroom := tight.Deadline - st.spentTime - profiler.DurationAt(d.Nodes, f)
		if headroom <= 0 {
			return false
		}
		if t, ok := st.reserveTrainTime(); ok && headroom < t {
			return false
		}
		return true
	case search.FastestWithBudget:
		headroom := tight.Budget - st.spentCost - profiler.CostAt(d, f)
		if headroom <= 0 {
			return false
		}
		if c, ok := st.reserveTrainCost(); ok && headroom < c {
			return false
		}
		return true
	default:
		return true
	}
}

// reservePick returns the deployment the search would commit to if it
// stopped right now — the "current best" whose training resources the
// paper's protective mechanism reserves (§III-C).
func (st *state) reservePick() (search.Observation, bool) {
	return search.PickBest(st.job, st.scen, st.tightened(), st.spentTime, st.spentCost, st.obs)
}

// reserveTrainTime returns the training time of the current best pick —
// the slice of deadline that must stay untouched so stopping now still
// meets the constraint. Probing anything that would erode it is
// over-exploration. RestartReserve widens the slice by the projected
// checkpoint/restart overhead of a spot-interrupted final run.
func (st *state) reserveTrainTime() (time.Duration, bool) {
	o, ok := st.reservePick()
	if !ok {
		return 0, false
	}
	t := search.EstTrainTime(st.job, o.Throughput)
	if st.opts.RestartReserve > 0 {
		t += time.Duration(float64(t) * st.opts.RestartReserve)
	}
	return t, true
}

// reserveTrainCost returns the training cost of the current best pick —
// the slice of budget reserved so stopping now still fits it, widened by
// RestartReserve for checkpoint/restart overhead.
func (st *state) reserveTrainCost() (float64, bool) {
	o, ok := st.reservePick()
	if !ok {
		return 0, false
	}
	c := search.EstTrainCost(st.job, o.Deployment, o.Throughput)
	return c * (1 + st.opts.RestartReserve), true
}

// safetyMargin is the headroom kept against measurement noise: probes
// average three trials of ~3 % relative noise, so 5 % ≈ 3σ.
const safetyMargin = 0.95

// tightened returns the constraints shrunk by the safety margin.
func (st *state) tightened() search.Constraints {
	c := st.cons
	if c.Deadline > 0 {
		c.Deadline = time.Duration(float64(c.Deadline) * safetyMargin)
	}
	if c.Budget > 0 {
		c.Budget *= safetyMargin
	}
	return c
}
