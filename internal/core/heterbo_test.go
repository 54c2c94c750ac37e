package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"mlcd/internal/bo"
	"mlcd/internal/cloud"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/sim"
	"mlcd/internal/workload"
)

var (
	cat       = cloud.DefaultCatalog()
	fullSpace = cloud.NewSpace(cat, cloud.DefaultLimits)
	scaleOut  = fullSpace.Filter(func(d cloud.Deployment) bool { return d.Type.Name == "c5.4xlarge" })
)

func newProf(seed int64) (*sim.Simulator, profiler.Profiler) {
	s := sim.New(seed)
	return s, profiler.NewSimProfiler(s)
}

func mustSearch(t *testing.T, h *HeterBO, j workload.Job, space *cloud.Space, scen search.Scenario, cons search.Constraints, prof profiler.Profiler) search.Outcome {
	t.Helper()
	out, err := h.Search(j, space, scen, cons, prof)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScenario1FindsNearOptimalScaleOut(t *testing.T) {
	s, prof := newProf(1)
	j := workload.ResNetCIFAR10
	out := mustSearch(t, New(Options{Seed: 42}), j, scaleOut, search.FastestUnlimited, search.Constraints{}, prof)
	if !out.Found {
		t.Fatal("must find a deployment")
	}
	_, optTime := s.FastestDeployment(j, scaleOut)
	got := s.TrainTime(j, out.Best)
	if got.Seconds() > optTime.Seconds()*1.15 {
		t.Fatalf("found %v (%.2fh), optimum %.2fh — more than 15%% off", out.Best, got.Hours(), optTime.Hours())
	}
}

func TestScenario3NeverExceedsBudget(t *testing.T) {
	// The headline guarantee (§III, Fig. 11): profiling + training must
	// fit the budget.
	s, prof := newProf(1)
	j := workload.ResNetCIFAR10
	cons := search.Constraints{Budget: 100}
	out := mustSearch(t, New(Options{Seed: 42}), j, scaleOut, search.FastestWithBudget, cons, prof)
	if !out.Found {
		t.Fatal("a feasible deployment exists for $100")
	}
	total := out.ProfileCost + s.TrainCost(j, out.Best)
	if total > cons.Budget {
		t.Fatalf("total cost $%.2f exceeds the $%.0f budget", total, cons.Budget)
	}
}

func TestScenario2NeverExceedsDeadline(t *testing.T) {
	s, prof := newProf(1)
	j := workload.ResNetCIFAR10
	cons := search.Constraints{Deadline: 6 * time.Hour}
	out := mustSearch(t, New(Options{Seed: 42}), j, scaleOut, search.CheapestWithDeadline, cons, prof)
	if !out.Found {
		t.Fatal("a feasible deployment exists for 6h")
	}
	total := out.ProfileTime + s.TrainTime(j, out.Best)
	if total > cons.Deadline {
		t.Fatalf("total time %v exceeds the %v deadline", total, cons.Deadline)
	}
}

func TestBudgetGuaranteeAcrossSeeds(t *testing.T) {
	// The protective reserve must hold for whatever the noise does.
	j := workload.ResNetCIFAR10
	cons := search.Constraints{Budget: 100}
	for seed := int64(1); seed <= 8; seed++ {
		s, prof := newProf(seed)
		out := mustSearch(t, New(Options{Seed: seed * 7}), j, scaleOut, search.FastestWithBudget, cons, prof)
		if !out.Found {
			t.Fatalf("seed %d: nothing found", seed)
		}
		if total := out.ProfileCost + s.TrainCost(j, out.Best); total > cons.Budget {
			t.Fatalf("seed %d: $%.2f over budget", seed, total)
		}
	}
}

func TestInitIsOneSingleNodeProbePerType(t *testing.T) {
	_, prof := newProf(3)
	tri := fullSpace.Filter(func(d cloud.Deployment) bool {
		switch d.Type.Name {
		case "c5.xlarge", "c5.4xlarge", "p2.xlarge":
			return d.Nodes <= 50
		}
		return false
	})
	out := mustSearch(t, New(Options{Seed: 42}), workload.CharRNNText, tri, search.FastestWithBudget, search.Constraints{Budget: 120}, prof)
	var initTypes []string
	for _, st := range out.Steps {
		if st.Note == "init" {
			if st.Deployment.Nodes != 1 {
				t.Fatalf("init probe %v is not single-node", st.Deployment)
			}
			initTypes = append(initTypes, st.Deployment.Type.Name)
		}
	}
	if len(initTypes) != 3 {
		t.Fatalf("init probes = %v, want one per type", initTypes)
	}
}

func TestSingleTypeSpaceBracketsBothEnds(t *testing.T) {
	_, prof := newProf(3)
	out := mustSearch(t, New(Options{Seed: 42}), workload.ResNetCIFAR10, scaleOut, search.FastestUnlimited, search.Constraints{}, prof)
	if len(out.Steps) < 2 || out.Steps[0].Note != "init" || out.Steps[1].Note != "init" {
		t.Fatal("single-type space must start with two init probes")
	}
	lo, hi := out.Steps[0].Deployment.Nodes, out.Steps[1].Deployment.Nodes
	if lo != 1 || hi < 20 {
		t.Fatalf("init bracket = (%d, %d), want (1, ≳half the range)", lo, hi)
	}
}

func TestConcavePriorPrunesLargeScaleOut(t *testing.T) {
	// After observing the downhill side of the curve, HeterBO must not
	// probe deployments beyond the detected decline.
	_, prof := newProf(1)
	j := workload.CharRNNText // peak ≈ n=40 on c5.xlarge
	so := fullSpace.Filter(func(d cloud.Deployment) bool { return d.Type.Name == "c5.xlarge" })
	out := mustSearch(t, New(Options{Seed: 42}), j, so, search.FastestUnlimited, search.Constraints{}, prof)

	// Find when the decline became observable (two points with the
	// larger-n one slower), then assert no later probe exceeded it.
	type pt struct {
		n   int
		thr float64
	}
	var seen []pt
	bound := 0
	for _, st := range out.Steps {
		for _, p := range seen {
			if st.Deployment.Nodes > p.n && bound > 0 && st.Deployment.Nodes > bound {
				t.Fatalf("probed %v beyond the concave-prior bound %d", st.Deployment, bound)
			}
		}
		seen = append(seen, pt{st.Deployment.Nodes, st.Throughput})
		// Recompute bound the way the searcher does.
		bound = 0
		for _, a := range seen {
			for _, b := range seen {
				if b.n > a.n && b.thr < a.thr*0.98 {
					if bound == 0 || b.n < bound {
						bound = b.n
					}
				}
			}
		}
	}
}

func TestAblationNoPriorProbesFurther(t *testing.T) {
	j := workload.ResNetCIFAR10
	_, profA := newProf(1)
	with := mustSearch(t, New(Options{Seed: 42}), j, scaleOut, search.FastestUnlimited, search.Constraints{}, profA)
	_, profB := newProf(1)
	without := mustSearch(t, New(Options{Seed: 42, DisableConcavePrior: true}), j, scaleOut, search.FastestUnlimited, search.Constraints{}, profB)
	maxN := func(o search.Outcome) int {
		m := 0
		for _, st := range o.Steps {
			if st.Deployment.Nodes > m {
				m = st.Deployment.Nodes
			}
		}
		return m
	}
	if maxN(without) < maxN(with) {
		t.Fatalf("disabling the prior should never shrink the explored range: %d vs %d", maxN(without), maxN(with))
	}
}

func TestAblationNoCostPenaltySpendsMore(t *testing.T) {
	j := workload.ResNetCIFAR10
	_, profA := newProf(1)
	with := mustSearch(t, New(Options{Seed: 42}), j, scaleOut, search.FastestUnlimited, search.Constraints{}, profA)
	_, profB := newProf(1)
	without := mustSearch(t, New(Options{Seed: 42, DisableCostPenalty: true}), j, scaleOut, search.FastestUnlimited, search.Constraints{}, profB)
	if without.ProfileCost < with.ProfileCost {
		t.Fatalf("cost-blind exploration should not be cheaper: $%.2f vs $%.2f", without.ProfileCost, with.ProfileCost)
	}
}

func TestAblationNoReserveCanViolateBudget(t *testing.T) {
	// With the reserve disabled AND cost-penalty off, the searcher can
	// spend like ConvBO; the budget guarantee disappears. (We only check
	// that the guarantee machinery is what enforces it: the no-reserve
	// run must spend at least as much on profiling.)
	j := workload.ResNetCIFAR10
	cons := search.Constraints{Budget: 100}
	_, profA := newProf(1)
	with := mustSearch(t, New(Options{Seed: 42}), j, scaleOut, search.FastestWithBudget, cons, profA)
	_, profB := newProf(1)
	without := mustSearch(t, New(Options{Seed: 42, DisableReserve: true, DisableCostPenalty: true}), j, scaleOut, search.FastestWithBudget, cons, profB)
	if without.ProfileCost < with.ProfileCost {
		t.Fatalf("unprotected search should not profile cheaper: $%.2f vs $%.2f", without.ProfileCost, with.ProfileCost)
	}
}

func TestRandomInitAblation(t *testing.T) {
	_, prof := newProf(1)
	out := mustSearch(t, New(Options{Seed: 42, RandomInit: true, InitPoints: 2}), workload.ResNetCIFAR10, scaleOut, search.FastestUnlimited, search.Constraints{}, prof)
	inits := 0
	for _, st := range out.Steps {
		if st.Note == "init" {
			inits++
		}
	}
	if inits != 2 {
		t.Fatalf("random init probes = %d, want 2", inits)
	}
}

func TestOOMProbesDisableReplicatedType(t *testing.T) {
	// BERT does not fit c5.large; after one OOM probe there HeterBO must
	// never probe that type again.
	_, prof := newProf(1)
	space := fullSpace.Filter(func(d cloud.Deployment) bool {
		return (d.Type.Name == "c5.large" || d.Type.Name == "c5n.4xlarge") && d.Nodes <= 20
	})
	out := mustSearch(t, New(Options{Seed: 42}), workload.BERTTF, space, search.FastestWithBudget, search.Constraints{Budget: 150}, prof)
	oomSeen := false
	for _, st := range out.Steps {
		if st.Deployment.Type.Name == "c5.large" {
			if oomSeen {
				t.Fatalf("probed dead type again at step %d", st.Index)
			}
			if st.Throughput == 0 {
				oomSeen = true
			}
		}
	}
	if out.Best.Type.Name == "c5.large" {
		t.Fatal("must not choose an OOM deployment")
	}
}

func TestSearchValidatesInputs(t *testing.T) {
	_, prof := newProf(1)
	h := New(Options{Seed: 1})
	if _, err := h.Search(workload.ResNetCIFAR10, scaleOut, search.FastestWithBudget, search.Constraints{}, prof); err == nil {
		t.Fatal("missing budget must error")
	}
	if _, err := h.Search(workload.Job{}, scaleOut, search.FastestUnlimited, search.Constraints{}, prof); err == nil {
		t.Fatal("invalid job must error")
	}
	if _, err := h.Search(workload.ResNetCIFAR10, cloud.NewSpaceFrom(nil), search.FastestUnlimited, search.Constraints{}, prof); err == nil {
		t.Fatal("empty space must error")
	}
}

func TestOutcomeBookkeeping(t *testing.T) {
	_, prof := newProf(1)
	out := mustSearch(t, New(Options{Seed: 42}), workload.ResNetCIFAR10, scaleOut, search.FastestUnlimited, search.Constraints{}, prof)
	var wantTime time.Duration
	var wantCost float64
	for i, st := range out.Steps {
		if st.Index != i+1 {
			t.Fatalf("step %d has index %d", i, st.Index)
		}
		wantTime += st.ProfileTime
		wantCost += st.ProfileCost
		if st.CumProfileTime != wantTime {
			t.Fatalf("step %d cumulative time %v, want %v", i, st.CumProfileTime, wantTime)
		}
	}
	if out.ProfileTime != wantTime || out.ProfileCost != wantCost {
		t.Fatalf("outcome totals inconsistent with steps")
	}
	if out.Stopped == "" {
		t.Fatal("stop reason must be recorded")
	}
	if out.Searcher != "heterbo" {
		t.Fatalf("searcher name = %q", out.Searcher)
	}
}

func TestDeterministicGivenSeeds(t *testing.T) {
	j := workload.ResNetCIFAR10
	run := func() search.Outcome {
		_, prof := newProf(5)
		return mustSearch(t, New(Options{Seed: 9}), j, scaleOut, search.FastestUnlimited, search.Constraints{}, prof)
	}
	a, b := run(), run()
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		if a.Steps[i].Deployment != b.Steps[i].Deployment {
			t.Fatalf("step %d differs: %v vs %v", i, a.Steps[i].Deployment, b.Steps[i].Deployment)
		}
	}
	if a.Best != b.Best {
		t.Fatalf("picks differ: %v vs %v", a.Best, b.Best)
	}
}

func TestStepNotesDistinguishPhases(t *testing.T) {
	_, prof := newProf(1)
	out := mustSearch(t, New(Options{Seed: 42}), workload.ResNetCIFAR10, scaleOut, search.FastestUnlimited, search.Constraints{}, prof)
	sawInit, sawExplore := false, false
	for _, st := range out.Steps {
		if st.Note == "init" {
			sawInit = true
		}
		if strings.HasPrefix(st.Note, "explore") {
			sawExplore = true
			if st.Acquisition <= 0 {
				t.Fatalf("explore step %d has non-positive acquisition", st.Index)
			}
		}
	}
	if !sawInit || !sawExplore {
		t.Fatalf("phases missing: init=%v explore=%v", sawInit, sawExplore)
	}
}

func TestWarmStartSkipsInitAndReusesEvidence(t *testing.T) {
	j := workload.ResNetCIFAR10
	_, profA := newProf(1)
	cold := mustSearch(t, New(Options{Seed: 42}), j, scaleOut, search.FastestUnlimited, search.Constraints{}, profA)

	// Re-run seeded with everything the cold run measured.
	var warm []search.Observation
	for _, st := range cold.Steps {
		warm = append(warm, search.Observation{Deployment: st.Deployment, Throughput: st.Throughput})
	}
	_, profB := newProf(1)
	hot := mustSearch(t, New(Options{Seed: 42, WarmStart: warm}), j, scaleOut, search.FastestUnlimited, search.Constraints{}, profB)

	if hot.ProfileCost >= cold.ProfileCost {
		t.Fatalf("warm start must cut profiling spend: $%.2f vs $%.2f", hot.ProfileCost, cold.ProfileCost)
	}
	for _, st := range hot.Steps {
		if st.Note == "init" {
			t.Fatal("warm start must replace the init phase")
		}
	}
	// The warm run's pick must be at least as good as the cold run's.
	s := sim.New(1)
	if s.TrainTime(j, hot.Best) > s.TrainTime(j, cold.Best)*101/100 {
		t.Fatalf("warm pick %v worse than cold pick %v", hot.Best, cold.Best)
	}
}

func TestWarmStartAbsorbsOOMKnowledge(t *testing.T) {
	// A warm-started search must not re-probe deployments a previous run
	// saw OOM, nor anything the capacity bound rules out.
	_, prof := newProf(1)
	space := fullSpace.Filter(func(d cloud.Deployment) bool {
		return (d.Type.Name == "c5.large" || d.Type.Name == "c5n.4xlarge") && d.Nodes <= 20
	})
	warm := []search.Observation{
		{Deployment: cloud.NewDeployment(cat.MustLookup("c5.large"), 3), Throughput: 0}, // OOM
		{Deployment: cloud.NewDeployment(cat.MustLookup("c5n.4xlarge"), 2), Throughput: 1.5},
	}
	out := mustSearch(t, New(Options{Seed: 42, WarmStart: warm}), workload.BERTTF, space,
		search.FastestWithBudget, search.Constraints{Budget: 150}, prof)
	for _, st := range out.Steps {
		if st.Deployment.Type.Name == "c5.large" {
			t.Fatalf("re-probed a type the warm start knew to be infeasible: %v", st.Deployment)
		}
	}
}

// TestWarmStartRefitsOnce: a warm start hands every cached observation
// to the surrogate in one batch, so a warm-started search records one
// gp_refactor_seconds sample for the whole warm start plus one per full-
// fidelity probe that reached the surrogate. Its trace stays byte-
// identical at any GOMAXPROCS, which sets the hyperparameter fit's
// fan-out.
func TestWarmStartRefitsOnce(t *testing.T) {
	j := workload.ResNetCIFAR10
	_, profA := newProf(1)
	cold := mustSearch(t, New(Options{Seed: 42}), j, fullSpace, search.FastestWithBudget, search.Constraints{Budget: 100}, profA)
	var warm []search.Observation
	usable := 0
	for _, st := range cold.Steps {
		if st.Failed {
			continue
		}
		warm = append(warm, search.Observation{Deployment: st.Deployment, Throughput: st.Throughput})
		if st.Throughput > 0 {
			usable++
		}
	}
	if usable < 10 {
		t.Fatalf("cold search left %d usable observations, want at least 10", usable)
	}

	// The rerun raises the budget, as a tenant would after a first pick.
	run := func(procs int) (search.Outcome, uint64, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		reg := obs.NewRegistry()
		rec := obs.NewRecorder(4)
		opts := Options{Seed: 42, WarmStart: warm, Metrics: reg,
			Tracer: rec.Start("job", j.Name, "", "scenario-2")}
		_, prof := newProf(1)
		out := mustSearch(t, New(opts), j, fullSpace, search.FastestWithBudget, search.Constraints{Budget: 200}, prof)
		tr, ok := rec.Get("job")
		if !ok {
			t.Fatal("no trace recorded")
		}
		b, err := obs.MarshalTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		return out, obs.NewPerf(reg).GPRefactorSeconds.Count(), b
	}
	out, refits, serial := run(1)
	probes := 0
	for _, st := range out.Steps {
		if !st.Failed && st.Fidelity == 0 && st.Throughput > 0 {
			probes++
		}
	}
	if want := uint64(1 + probes); refits != want {
		t.Fatalf("warm-started search recorded %d refits, want %d (1 for %d warm observations + %d probes)",
			refits, want, usable, probes)
	}
	_, refits2, parallel := run(2)
	if refits2 != refits {
		t.Fatalf("refits at GOMAXPROCS=2 = %d, at GOMAXPROCS=1 = %d", refits2, refits)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("warm-started trace differs between GOMAXPROCS 1 and 2:\n--- 1 ---\n%s\n--- 2 ---\n%s", serial, parallel)
	}
}

func TestShardedAnchoringFindsFeasibleFrontier(t *testing.T) {
	// ZeRO-20B fits no single node: the search must escalate each type
	// to its feasibility frontier and still land on a feasible pick.
	_, prof := newProf(1)
	space := fullSpace.Filter(func(d cloud.Deployment) bool {
		switch d.Type.Name {
		case "c5.4xlarge", "c5n.18xlarge", "p3.16xlarge":
			return d.Nodes <= 50
		}
		return false
	})
	out := mustSearch(t, New(Options{Seed: 1}), workload.ZeRO20BJob, space,
		search.FastestWithBudget, search.Constraints{Budget: 300}, prof)
	if !out.Found {
		t.Fatalf("must find a feasible deployment; stopped: %s", out.Stopped)
	}
	anchors := 0
	for _, st := range out.Steps {
		if st.Note == "feasibility-anchor" {
			anchors++
		}
	}
	if anchors == 0 {
		t.Fatal("expected feasibility-anchor probes after an all-OOM init")
	}
	if !sim.MemoryFeasible(workload.ZeRO20BJob, out.Best) {
		t.Fatalf("picked infeasible deployment %v", out.Best)
	}
	// The learned capacity bound must have spared redundant OOM probes:
	// after any OOM at total capacity C, no later probe offers ≤ C.
	maxOOMCap := 0.0
	for _, st := range out.Steps {
		cap := nodeCapacityGiB(st.Deployment.Type) * float64(st.Deployment.Nodes)
		if st.Throughput == 0 {
			if cap <= maxOOMCap {
				t.Fatalf("probe %v re-tested capacity %.0f ≤ learned bound %.0f", st.Deployment, cap, maxOOMCap)
			}
			maxOOMCap = cap
		}
	}
}

func TestReplicatedModelFitsNowhere(t *testing.T) {
	// BERT's replicated state (~6.1 GiB) fits none of the small types:
	// the search must fail cleanly rather than loop.
	_, prof := newProf(1)
	space := fullSpace.Filter(func(d cloud.Deployment) bool {
		return (d.Type.Name == "c5.large" || d.Type.Name == "c4.large") && d.Nodes <= 20
	})
	out := mustSearch(t, New(Options{Seed: 1}), workload.BERTTF, space,
		search.FastestUnlimited, search.Constraints{}, prof)
	if out.Found {
		t.Fatalf("nothing fits; pick = %v", out.Best)
	}
	if out.Stopped != "no feasible deployment found" {
		t.Fatalf("stop reason = %q", out.Stopped)
	}
}

func TestUCBAndPOIAcquisitionsWork(t *testing.T) {
	j := workload.ResNetCIFAR10
	for _, acq := range []bo.Acquisition{bo.UCB{Beta: 2}, bo.POI{Xi: 0.01}} {
		_, prof := newProf(1)
		out := mustSearch(t, New(Options{Seed: 42, Acquisition: acq}), j, scaleOut,
			search.FastestUnlimited, search.Constraints{}, prof)
		if !out.Found {
			t.Fatalf("%s: nothing found", acq.Name())
		}
	}
}

func TestWarmStartSkipsDuplicatesAndBadEntries(t *testing.T) {
	_, prof := newProf(1)
	d := cloud.NewDeployment(cat.MustLookup("c5.4xlarge"), 10)
	warm := []search.Observation{
		{Deployment: d, Throughput: 113},
		{Deployment: d, Throughput: 113},                // duplicate
		{Deployment: cloud.Deployment{}, Throughput: 5}, // zero nodes: ignored
	}
	out := mustSearch(t, New(Options{Seed: 42, WarmStart: warm}), workload.ResNetCIFAR10, scaleOut,
		search.FastestUnlimited, search.Constraints{}, prof)
	if !out.Found {
		t.Fatal("search must proceed from the single valid warm observation")
	}
}
