package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mlcd/internal/bo"
	"mlcd/internal/cloud"
	"mlcd/internal/fleetprior"
	"mlcd/internal/profiler"
	"mlcd/internal/rngtape"
	"mlcd/internal/search"
	"mlcd/internal/sim"
	"mlcd/internal/workload"
)

// This file pins the flat-SoA acquisition sweep (scanCandidates) to the
// pre-flattening three-pass loop, kept below verbatim as an oracle: at
// every step of a search, across the scenario/ladder/chaos/sharded case
// distribution the conformance generator draws from, both must select
// the same deployment with the same (bit-identical) score, fidelity,
// note, and maxRawEI. Trace-byte identity over the generator's real
// cases is pinned separately by the conformance trace goldens.

// refFeasibleIncumbentObjective is the original map-keyed incumbent
// scan: it walks the space and rediscovers pending screens through
// lowProbed lookups on freshly built keys.
func refFeasibleIncumbentObjective(st *state) (float64, bool) {
	best, found := st.confirmedIncumbentObjective()
	tight := st.tightened()
	if len(st.lowProbed) > 0 && st.surr.Len() > 0 {
		for i := 0; i < st.space.Len(); i++ {
			d := st.space.At(i)
			if _, pending := st.lowProbed[d.Key()]; !pending {
				continue
			}
			mu, _ := st.surr.Predict(d)
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

// refNextCandidate is the acquisition sweep before the SoA flattening:
// per-candidate map keys in pass 1, a per-candidate Predict in pass 2,
// and per-candidate fidelityOptions/admissibleAt (each re-running the
// reserve pick) in pass 3. Everything it calls still exists in
// production — only the sweep's geometry changed.
func refNextCandidate(st *state) (cloud.Deployment, candidateScore, bool) {
	if st.surr.Len() == 0 {
		return cloud.Deployment{}, candidateScore{}, false
	}
	bestObj, haveFeasible := refFeasibleIncumbentObjective(st)
	if !haveFeasible {
		bestObj = st.surr.BestObserved() - 3
	}
	cands := make([]cloud.Deployment, 0, st.space.Len())
	for i := 0; i < st.space.Len(); i++ {
		d := st.space.At(i)
		if st.profiled[d.Key()] || st.pruned(d) || !st.admissibleCheapest(d) {
			continue
		}
		if _, pending := st.lowProbed[d.Key()]; pending {
			continue
		}
		cands = append(cands, d)
	}
	if len(cands) == 0 {
		return cloud.Deployment{}, candidateScore{}, false
	}
	mu := make([]float64, len(cands))
	sigma := make([]float64, len(cands))
	for i, d := range cands {
		mu[i], sigma[i] = st.surr.Predict(d)
	}
	var (
		best      cloud.Deployment
		bestScore candidateScore
		found     bool
	)
	for i, d := range cands {
		sig := sigma[i] + st.surr.GapStd(d)
		optimistic := mu[i] + st.opts.ConfidenceZ*sig
		if optimistic <= bestObj {
			continue
		}
		var passing []float64
		for _, f := range st.fidelityOptions(d) {
			if st.teiPositiveAt(d, f, optimistic) && st.admissibleAt(d, f) {
				passing = append(passing, f)
			}
		}
		if len(passing) == 0 {
			continue
		}
		ei := st.opts.Acquisition.Score(mu[i], sig, bestObj)
		if ei <= 0 {
			continue
		}
		if ei > bestScore.maxRawEI {
			bestScore.maxRawEI = ei
		}
		for _, f := range passing {
			score := ei * math.Sqrt(f)
			note := "explore"
			if !st.opts.DisableCostPenalty {
				score = score / st.penaltyAt(d, f)
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

// flakyProfiler injects deterministic infrastructure failures so the
// censored-probe → quarantine path shapes the masks mid-search, the way
// the conformance chaos cases do.
type flakyProfiler struct {
	inner profiler.Profiler
	rng   *rand.Rand
	rate  float64
}

func (p *flakyProfiler) fail(d cloud.Deployment) (profiler.Result, bool) {
	if p.rng.Float64() >= p.rate {
		return profiler.Result{}, false
	}
	burn := 3 * time.Minute
	return profiler.Result{
		Deployment: d, Failed: true,
		Duration: burn, Cost: d.CostFor(burn),
	}, true
}

func (p *flakyProfiler) Profile(j workload.Job, d cloud.Deployment) profiler.Result {
	if r, failed := p.fail(d); failed {
		return r
	}
	return p.inner.Profile(j, d)
}

func (p *flakyProfiler) ProfileAt(j workload.Job, d cloud.Deployment, f float64) profiler.Result {
	if r, failed := p.fail(d); failed {
		r.Fidelity = profiler.Fid(f)
		return r
	}
	return profiler.ProbeAt(p.inner, j, d, f)
}

// soaCase is one point of the equivalence sweep's case distribution.
type soaCase struct {
	name       string
	job        workload.Job
	space      *cloud.Space
	scen       search.Scenario
	cons       search.Constraints
	fidelities []float64
	flakyRate  float64
	fleet      bool // arm a fleet meta-prior on the surrogate
}

// soaFleetPrior synthesizes the fleet meta-prior a warm shard would hold
// for the case's model family: donor jobs from the same family, probed at
// the simulator's ground truth over the case's own space. The donor set
// excludes the case's job when the family has siblings, matching how
// cross-job transfer looks in production.
func soaFleetPrior(c soaCase, s *sim.Simulator) *fleetprior.Prior {
	family := fleetprior.Family(c.job)
	var donors []workload.Job
	for _, j := range []workload.Job{
		workload.ResNetCIFAR10, workload.AlexNetCIFAR10, workload.InceptionImageNet,
		workload.CharRNNText, workload.BERTTF, workload.BERTMXNet,
		workload.ZeRO8BJob, workload.ZeRO20BJob,
	} {
		if fleetprior.Family(j) == family && j.String() != c.job.String() {
			donors = append(donors, j)
		}
	}
	if len(donors) == 0 {
		donors = []workload.Job{c.job}
	}
	var samples []fleetprior.Sample
	for _, j := range donors {
		for i := 0; i < c.space.Len(); i++ {
			d := c.space.At(i)
			thr := s.Throughput(j, d)
			if thr <= 0 {
				continue
			}
			samples = append(samples, fleetprior.Sample{
				JobKey: j.String(), Family: family,
				Type: d.Type.Name, Nodes: d.Nodes, Throughput: thr,
			})
		}
	}
	return fleetprior.Build(samples)
}

// soaCases mirrors the regimes the conformance generator rotates
// through: all three scenarios, single- and multi-type spaces, fidelity
// ladders, chaos (probe failures → quarantine), and a sharded model
// whose OOM probes teach the memory bound. Node counts are capped so
// each case's GP stays small enough for the whole table to run in
// tier 1.
func soaCases() []soaCase {
	lim := cloud.SpaceLimits{MaxCPUNodes: 10, MaxGPUNodes: 6}
	multi := cloud.NewSpace(cloud.DefaultCatalog(), lim)
	single := multi.Filter(func(d cloud.Deployment) bool { return d.Type.Name == "c5.4xlarge" })
	return []soaCase{
		{name: "fastest-multi", job: workload.ResNetCIFAR10, space: multi, scen: search.FastestUnlimited},
		{name: "fastest-single", job: workload.CharRNNText, space: single, scen: search.FastestUnlimited},
		{name: "deadline", job: workload.ResNetCIFAR10, space: multi,
			scen: search.CheapestWithDeadline, cons: search.Constraints{Deadline: 24 * time.Hour}},
		{name: "deadline-tight", job: workload.BERTTF, space: multi,
			scen: search.CheapestWithDeadline, cons: search.Constraints{Deadline: 8 * time.Hour}},
		{name: "budget", job: workload.ResNetCIFAR10, space: multi,
			scen: search.FastestWithBudget, cons: search.Constraints{Budget: 150}},
		{name: "budget-ladder", job: workload.AlexNetCIFAR10, space: multi,
			scen: search.FastestWithBudget, cons: search.Constraints{Budget: 120},
			fidelities: []float64{0.25, 0.5}},
		{name: "ladder", job: workload.ResNetCIFAR10, space: multi,
			scen: search.FastestUnlimited, fidelities: []float64{0.1, 0.5}},
		{name: "chaos", job: workload.ResNetCIFAR10, space: multi,
			scen: search.FastestUnlimited, flakyRate: 0.3},
		{name: "chaos-deadline", job: workload.CharRNNText, space: multi,
			scen: search.CheapestWithDeadline, cons: search.Constraints{Deadline: 20 * time.Hour},
			flakyRate: 0.25},
		{name: "chaos-ladder", job: workload.ResNetCIFAR10, space: multi,
			scen: search.FastestUnlimited, fidelities: []float64{0.25}, flakyRate: 0.2},
		{name: "sharded-oom", job: workload.ZeRO8BJob, space: multi, scen: search.FastestUnlimited},
		{name: "fleet-warm", job: workload.ResNetCIFAR10, space: multi,
			scen: search.FastestUnlimited, fleet: true},
		{name: "fleet-deadline", job: workload.BERTTF, space: multi,
			scen: search.CheapestWithDeadline, cons: search.Constraints{Deadline: 24 * time.Hour},
			fleet: true},
		{name: "fleet-ladder", job: workload.AlexNetCIFAR10, space: multi,
			scen: search.FastestWithBudget, cons: search.Constraints{Budget: 150},
			fidelities: []float64{0.25, 0.5}, fleet: true},
	}
}

// newSoAState builds a search state exactly as Search does, stopping
// short of running it, so the test can drive the loop step by step.
func newSoAState(c soaCase, seed int64) *state {
	opts := Options{Seed: seed, Fidelities: c.fidelities}.withDefaults()
	st := &state{
		job: c.job, scen: c.scen, cons: c.cons, space: c.space,
		opts:        opts,
		rng:         rngtape.New(opts.Seed),
		profiled:    make(map[string]bool),
		lowProbed:   make(map[string]float64),
		failures:    make(map[string]int),
		quarantined: make(map[string]bool),
		priorBound:  make(map[string]int),
	}
	simul, prof := newProf(seed)
	if c.flakyRate > 0 {
		prof = &flakyProfiler{inner: prof, rng: rand.New(rand.NewSource(seed + 7)), rate: c.flakyRate}
	}
	st.prof = prof
	st.surr = bo.NewMultiFidelitySurrogate(bo.NewSurrogate(opts.Kernel.Clone(), st.rng), opts.GapPriorBeta)
	if c.fleet {
		if fm := newFleetMean(soaFleetPrior(c, simul), c.job, c.space, c.scen); fm != nil {
			st.surr.SetMean(fm)
		}
	}
	return st
}

// sameScore asserts bit-for-bit equality of two candidate evaluations.
func sameScore(t *testing.T, step int, gotD, refD cloud.Deployment, got, ref candidateScore, gotOK, refOK bool) {
	t.Helper()
	if gotOK != refOK {
		t.Fatalf("step %d: found=%v, reference found=%v", step, gotOK, refOK)
	}
	if gotD != refD {
		t.Fatalf("step %d: picked %v, reference picked %v", step, gotD, refD)
	}
	if got != ref {
		t.Fatalf("step %d: score %+v, reference %+v", step, got, ref)
	}
}

// TestScanCandidatesMatchesReference drives full searches across the
// case distribution, asserting at EVERY exploration step that the flat
// sweep and the pre-refactor loop agree exactly, then advancing with
// the production pick so later steps exercise quarantined, prior-
// pruned, OOM-bounded, and pending-screen masks in realistic states.
func TestScanCandidatesMatchesReference(t *testing.T) {
	for _, c := range soaCases() {
		for _, seed := range []int64{1, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				st := newSoAState(c, seed)
				for _, d := range st.initialDeployments() {
					if st.pruned(d) || !st.admissible(d) {
						continue
					}
					st.probe(d, st.screenFid(), 0, "init")
				}
				for _, d := range st.initialDeployments() {
					if st.failures[d.Key()] == 0 || st.profiled[d.Key()] || st.pruned(d) || !st.admissible(d) {
						continue
					}
					st.probe(d, st.screenFid(), 0, "init-retry")
				}
				if st.surr.Len() == 0 && st.job.Model.ShardedStates {
					st.anchorSharded()
				}
				if st.surr.Len() == 0 {
					t.Skip("no feasible init for this case")
				}
				steps := 0
				for explored := 0; explored < st.opts.MaxSteps; explored++ {
					st.updatePrior()
					refD, refScore, refOK := refNextCandidate(st)
					gotD, gotScore, gotOK := st.nextCandidate()
					sameScore(t, explored, gotD, refD, gotScore, refScore, gotOK, refOK)
					if !gotOK {
						break
					}
					if explored >= st.opts.MinSteps && gotScore.maxRawEI < st.opts.EITolerance {
						break
					}
					st.probe(gotD, gotScore.fid, gotScore.score, gotScore.note)
					steps++
				}
				if steps == 0 {
					t.Logf("case converged before any exploration probe (init-only)")
				}
			})
		}
	}
}
