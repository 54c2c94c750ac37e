package conformance

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
)

// Violation is one broken invariant with enough detail to debug it.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Invariant names, as they appear in violations and in DESIGN.md §11.
const (
	InvLedger       = "ledger-conservation"
	InvHeadroom     = "headroom-nonnegative"
	InvReserve      = "reserve-honored"
	InvConcavity    = "concavity-respected"
	InvConstraints  = "constraints-respected"
	InvQuarantine   = "censored-quarantine"
	InvRegret       = "oracle-regret"
	InvFidelity     = "fidelity-accounting"
	InvFidelityPick = "fidelity-pick-confirmed"
)

// Check evaluates every invariant against one case's artifacts and
// returns all violations found (empty = conformant).
func Check(a *Artifacts) []Violation {
	var out []Violation
	out = append(out, checkLedger(a)...)
	out = append(out, checkHeadroom(a)...)
	out = append(out, checkReserve(a)...)
	out = append(out, checkConcavity(a)...)
	out = append(out, checkConstraints(a)...)
	out = append(out, checkQuarantine(a)...)
	out = append(out, checkRegret(a)...)
	out = append(out, checkFidelity(a)...)
	out = append(out, checkFidelityPick(a)...)
	return out
}

// stepFid is a step's delivered fidelity (the unset field means full).
func stepFid(st search.Step) float64 {
	if st.Fidelity > 0 && st.Fidelity < 1 {
		return st.Fidelity
	}
	return 1
}

// stepEntersObs mirrors core's rule for which steps reach the
// observation list the reserve and the final pick lean on: every
// non-censored full measurement, including an OOM taken at low fidelity
// (the crash is a fidelity-independent fact) — but never a successful
// sub-sampled reading, whose biased throughput only informs the
// surrogate through the gap model.
func stepEntersObs(st search.Step) bool {
	return !st.Failed && (st.Fidelity == 0 || st.Throughput <= 0)
}

// approxRel reports a ≈ b within a relative tolerance (absolute near 0).
func approxRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

const (
	dollarTol = 1e-6
	hourTol   = 1e-6
)

// checkLedger is conservation of money and time: every step's running
// totals fold from the previous step, the outcome's totals equal the
// last step's, the report's totals are profiling + training, and the
// trace and metrics tell the same story to the cent.
func checkLedger(a *Artifacts) []Violation {
	var v []Violation
	bad := func(f string, args ...any) { v = append(v, Violation{InvLedger, fmt.Sprintf(f, args...)}) }

	out := a.Report.Outcome
	var cumT time.Duration
	var cumC float64
	for i, st := range out.Steps {
		if st.Index != i+1 {
			bad("step %d has index %d", i+1, st.Index)
		}
		if st.CumProfileTime != cumT+st.ProfileTime {
			bad("step %d: cum profile time %v ≠ %v + %v", st.Index, st.CumProfileTime, cumT, st.ProfileTime)
		}
		if !approxRel(st.CumProfileCost, cumC+st.ProfileCost, dollarTol) {
			bad("step %d: cum profile cost %.9f ≠ %.9f + %.9f", st.Index, st.CumProfileCost, cumC, st.ProfileCost)
		}
		if st.ProfileTime < 0 || st.ProfileCost < 0 {
			bad("step %d: negative profiling spend (%v, $%.6f)", st.Index, st.ProfileTime, st.ProfileCost)
		}
		cumT, cumC = st.CumProfileTime, st.CumProfileCost
	}
	if out.ProfileTime != cumT {
		bad("outcome profile time %v ≠ last step cum %v", out.ProfileTime, cumT)
	}
	if !approxRel(out.ProfileCost, cumC, dollarTol) {
		bad("outcome profile cost %.9f ≠ last step cum %.9f", out.ProfileCost, cumC)
	}

	r := a.Report
	if r.TotalTime != out.ProfileTime+r.TrainTime {
		bad("total time %v ≠ profiling %v + training %v", r.TotalTime, out.ProfileTime, r.TrainTime)
	}
	if !approxRel(r.TotalCost, out.ProfileCost+r.TrainCost, dollarTol) {
		bad("total cost %.9f ≠ profiling %.9f + training %.9f", r.TotalCost, out.ProfileCost, r.TrainCost)
	}
	if r.LostTime < 0 || r.LostCost < 0 || r.Interruptions < 0 {
		bad("negative loss ledger (%v, $%.6f, %d interruptions)", r.LostTime, r.LostCost, r.Interruptions)
	}
	if r.LostTime > r.TrainTime || r.LostCost > r.TrainCost+dollarTol {
		bad("lost work (%v, $%.6f) exceeds the training bill (%v, $%.6f)", r.LostTime, r.LostCost, r.TrainTime, r.TrainCost)
	}
	if r.Interruptions > 0 && r.LostCost <= 0 {
		bad("%d interruptions booked zero lost cost", r.Interruptions)
	}

	// Trace ↔ steps: exactly one probe event per step carrying the same
	// ledger entries.
	var probes, spots []int
	for i, e := range a.Trace.Events {
		switch e.Kind {
		case "probe":
			probes = append(probes, i)
		case "spot_interruption":
			spots = append(spots, i)
		}
	}
	if len(probes) != len(out.Steps) {
		bad("trace has %d probe events for %d steps", len(probes), len(out.Steps))
	} else {
		for i, st := range out.Steps {
			e := a.Trace.Events[probes[i]]
			switch {
			case e.Step != st.Index:
				bad("probe event %d labeled step %d, want %d", i+1, e.Step, st.Index)
			case e.Deployment != st.Deployment.String():
				bad("step %d: trace deployment %q ≠ %q", st.Index, e.Deployment, st.Deployment)
			case e.Throughput != st.Throughput:
				bad("step %d: trace throughput %.6f ≠ %.6f", st.Index, e.Throughput, st.Throughput)
			case !approxRel(e.ProfileUSD, st.ProfileCost, dollarTol) || !approxRel(e.CumProfileUSD, st.CumProfileCost, dollarTol):
				bad("step %d: trace dollars ($%.9f cum $%.9f) ≠ step ($%.9f cum $%.9f)",
					st.Index, e.ProfileUSD, e.CumProfileUSD, st.ProfileCost, st.CumProfileCost)
			case !approxRel(e.CumProfileHours, st.CumProfileTime.Hours(), hourTol):
				bad("step %d: trace cum hours %.9f ≠ %.9f", st.Index, e.CumProfileHours, st.CumProfileTime.Hours())
			case e.Note != st.Note:
				bad("step %d: trace note %q ≠ %q", st.Index, e.Note, st.Note)
			}
		}
	}
	if len(spots) != r.Interruptions {
		bad("trace has %d spot_interruption events, report says %d", len(spots), r.Interruptions)
	}
	spotLost := 0.0
	for _, i := range spots {
		spotLost += a.Trace.Events[i].LostUSD
	}
	if spotLost > r.LostCost+dollarTol {
		bad("spot events lost $%.6f > report lost $%.6f", spotLost, r.LostCost)
	}

	// Metrics ↔ report: the Prometheus families this single run bumped
	// must reconcile with its report (the registry is fresh per case).
	mv := func(name string) float64 { return metricValue(a.Metrics, name) }
	for _, chk := range []struct {
		name   string
		metric float64
		want   float64
	}{
		{"mlcd_profile_hours_total", mv("mlcd_profile_hours_total"), out.ProfileTime.Hours()},
		{"mlcd_profile_usd_total", mv("mlcd_profile_usd_total"), out.ProfileCost},
		{"mlcd_train_hours_total", mv("mlcd_train_hours_total"), r.TrainTime.Hours()},
		{"mlcd_train_usd_total", mv("mlcd_train_usd_total"), r.TrainCost},
		{"mlcd_train_lost_hours_total", mv("mlcd_train_lost_hours_total"), r.LostTime.Hours()},
		{"mlcd_train_lost_usd_total", mv("mlcd_train_lost_usd_total"), r.LostCost},
		{"mlcd_spot_interruptions_total", mv("mlcd_spot_interruptions_total"), float64(r.Interruptions)},
		{"mlcd_search_steps_total", mv("mlcd_search_steps_total"), float64(len(out.Steps))},
		{"mlcd_search_runs_total", mv("mlcd_search_runs_total"), 1},
	} {
		if !approxRel(chk.metric, chk.want, 1e-6) {
			bad("%s = %.9f, report says %.9f", chk.name, chk.metric, chk.want)
		}
	}
	return v
}

// checkHeadroom verifies the per-probe headroom annotations (Eqs. 5–6):
// arithmetically consistent with the search constraint minus cumulative
// spend, and never negative in a fault-free reserve-protected run (a
// censored chaos probe may legitimately burn past its planned cost).
func checkHeadroom(a *Artifacts) []Violation {
	var v []Violation
	bad := func(f string, args ...any) { v = append(v, Violation{InvHeadroom, fmt.Sprintf(f, args...)}) }
	strict := a.Case.Chaos == nil && !a.Case.DisableReserve
	for _, e := range a.Trace.Events {
		if e.Kind != "probe" {
			continue
		}
		switch a.Scenario {
		case search.CheapestWithDeadline:
			want := a.SearchCons.Deadline.Hours() - e.CumProfileHours
			if !approxRel(e.HeadroomHours, want, 1e-6) {
				bad("step %d: headroom %.9f h inconsistent with deadline %.9f − spend %.9f",
					e.Step, e.HeadroomHours, a.SearchCons.Deadline.Hours(), e.CumProfileHours)
			}
			if strict && e.HeadroomHours < -1e-9 {
				bad("step %d: negative deadline headroom %.9f h in a fault-free run", e.Step, e.HeadroomHours)
			}
		case search.FastestWithBudget:
			want := a.SearchCons.Budget - e.CumProfileUSD
			if !approxRel(e.HeadroomUSD, want, 1e-6) {
				bad("step %d: headroom $%.9f inconsistent with budget $%.9f − spend $%.9f",
					e.Step, e.HeadroomUSD, a.SearchCons.Budget, e.CumProfileUSD)
			}
			if strict && e.HeadroomUSD < -1e-9 {
				bad("step %d: negative budget headroom $%.9f in a fault-free run", e.Step, e.HeadroomUSD)
			}
		}
	}
	return v
}

// tightened mirrors core's safety margin on the search constraints.
func tightened(c search.Constraints) search.Constraints {
	if c.Deadline > 0 {
		c.Deadline = time.Duration(float64(c.Deadline) * 0.95)
	}
	if c.Budget > 0 {
		c.Budget *= 0.95
	}
	return c
}

// checkReserve replays the protective reserve (§III-C) over the step
// ledger: at the moment each probe was chosen, paying for it had to
// leave positive headroom against the tightened constraint, AND — once
// a constraint-satisfying fallback existed — enough of it to still
// train there. It also replays the final pick. The checker runs even
// when the case disables the reserve: that is exactly how the suite
// proves a broken reserve cannot hide.
func checkReserve(a *Artifacts) []Violation {
	if a.Scenario == search.FastestUnlimited {
		return nil
	}
	var v []Violation
	bad := func(f string, args ...any) { v = append(v, Violation{InvReserve, fmt.Sprintf(f, args...)}) }

	out := a.Report.Outcome
	tight := tightened(a.SearchCons)
	var spentT time.Duration
	var spentC float64
	var obsList []search.Observation
	for _, st := range out.Steps {
		// Reserve state as it stood when this probe was admitted: the
		// probe is priced at the fidelity it actually ran at.
		pick, havePick := search.PickBest(a.Job, a.Scenario, tight, spentT, spentC, obsList)
		fid := stepFid(st)
		switch a.Scenario {
		case search.CheapestWithDeadline:
			headroom := tight.Deadline - spentT - profiler.DurationAt(st.Deployment.Nodes, fid)
			if headroom <= 0 {
				bad("step %d probed %s with %v headroom against the tightened deadline", st.Index, st.Deployment, headroom)
			} else if havePick {
				if res := search.EstTrainTime(a.Job, pick.Throughput); headroom < res {
					bad("step %d probed %s eroding the reserve: headroom %v < fallback training time %v at %s",
						st.Index, st.Deployment, headroom, res, pick.Deployment)
				}
			}
		case search.FastestWithBudget:
			headroom := tight.Budget - spentC - profiler.CostAt(st.Deployment, fid)
			if headroom <= 0 {
				bad("step %d probed %s with $%.6f headroom against the tightened budget", st.Index, st.Deployment, headroom)
			} else if havePick {
				if res := search.EstTrainCost(a.Job, pick.Deployment, pick.Throughput); headroom < res {
					bad("step %d probed %s eroding the reserve: headroom $%.6f < fallback training cost $%.6f at %s",
						st.Index, st.Deployment, headroom, res, pick.Deployment)
				}
			}
		}
		spentT, spentC = st.CumProfileTime, st.CumProfileCost
		if stepEntersObs(st) {
			obsList = append(obsList, search.Observation{Deployment: st.Deployment, Throughput: st.Throughput})
		}
	}

	// The final pick must replay from the ledger.
	pick, found := search.PickBest(a.Job, a.Scenario, tight, out.ProfileTime, out.ProfileCost, obsList)
	if found != out.Found || pick.Deployment.Key() != out.Best.Key() || pick.Throughput != out.BestThroughput {
		bad("final pick %s (thr %.3f, found %v) does not replay from the step ledger: got %s (thr %.3f, found %v)",
			out.Best, out.BestThroughput, out.Found, pick.Deployment, pick.Throughput, found)
	}
	return v
}

// nodeCapacityGiB mirrors core's memory model: GPU deployments hold
// model state in GPU memory, CPU deployments in host memory.
func nodeCapacityGiB(it cloud.InstanceType) float64 {
	if it.IsGPU() {
		return float64(it.GPUs) * it.GPUMemGiB
	}
	return it.MemGiB
}

// checkConcavity replays the concave scale-out prior: walking the step
// ledger, it derives the per-type node bound exactly as the search does
// (first throughput decline past the 2 % noise margin, min-folded), and
// flags any exploration probe above a bound that earlier observations
// had already established.
func checkConcavity(a *Artifacts) []Violation {
	var v []Violation
	bounds := map[string]int{}
	var obsList []search.Observation
	fold := func() {
		byType := map[string][]search.Observation{}
		for _, o := range obsList {
			if o.Throughput > 0 {
				byType[o.Deployment.Type.Name] = append(byType[o.Deployment.Type.Name], o)
			}
		}
		for name, list := range byType {
			sort.Slice(list, func(i, j int) bool { return list[i].Deployment.Nodes < list[j].Deployment.Nodes })
			for i := 1; i < len(list); i++ {
				if list[i].Throughput < list[i-1].Throughput*0.98 {
					if cur, ok := bounds[name]; !ok || list[i].Deployment.Nodes < cur {
						bounds[name] = list[i].Deployment.Nodes
					}
					break
				}
			}
		}
	}
	for _, st := range a.Report.Outcome.Steps {
		if strings.HasPrefix(st.Note, "explore") {
			fold()
			if bound, ok := bounds[st.Deployment.Type.Name]; ok && st.Deployment.Nodes > bound {
				v = append(v, Violation{InvConcavity, fmt.Sprintf(
					"step %d explored %s after the concave prior capped %s at %d nodes",
					st.Index, st.Deployment, st.Deployment.Type.Name, bound)})
			}
		}
		// Only full measurements feed the prior: a biased low reading on
		// the scale-out curve would cap types on phantom declines.
		if stepEntersObs(st) {
			obsList = append(obsList, search.Observation{Deployment: st.Deployment, Throughput: st.Throughput})
		}
	}
	return v
}

// checkConstraints is the paper's headline guarantee: the delivered run
// — profiling plus training, lost work included — never exceeds the
// user's deadline or budget, and the report's Satisfied flag tells the
// truth about it.
//
// Fault-free the guarantee is absolute: the system's margins exist to
// absorb measurement noise and must hold exactly. Under a chaos plan no
// margin policy can absorb an arbitrary fault schedule — a reclaimed
// spot cluster rebills work already paid for — so the guarantee weakens
// to attribution: any overrun must be covered by the booked lost work
// plus a bounded grace per injected fault and per resume (re-paid
// warm-ups, launch backoffs, and straggler stretch bill real time and
// money without landing in LostTime/LostCost). A genuine accounting bug
// — unbilled profiling, double-billed training — overruns far past what
// the injected faults can explain and still trips this check.
func checkConstraints(a *Artifacts) []Violation {
	var v []Violation
	bad := func(f string, args ...any) { v = append(v, Violation{InvConstraints, fmt.Sprintf(f, args...)}) }
	r := a.Report

	// Chaos-attributable allowance beyond the booked lost work: every
	// injected fault or resume can stretch the run by at most one
	// checkpoint chunk's worth of slowdown, backoff, and warm-up.
	var graceTime time.Duration
	graceCost := 0.0
	if a.Case.Chaos != nil {
		events := metricValue(a.Metrics, "mlcd_chaos_faults_total") +
			metricValue(a.Metrics, "mlcd_train_resumes_total")
		graceTime = r.LostTime + time.Duration(events*float64(30*time.Minute))
		graceCost = r.LostCost + events*0.5*r.Outcome.Best.HourlyCost()
	}

	wantSatisfied := true
	switch a.Scenario {
	case search.CheapestWithDeadline:
		if r.TotalTime > a.UserCons.Deadline+graceTime {
			bad("total time %v exceeds the user deadline %v beyond the chaos-attributable %v (profiling %v + training %v, lost %v)",
				r.TotalTime, a.UserCons.Deadline, graceTime, r.Outcome.ProfileTime, r.TrainTime, r.LostTime)
		}
		wantSatisfied = r.TotalTime <= a.UserCons.Deadline
	case search.FastestWithBudget:
		if r.TotalCost > a.UserCons.Budget+graceCost+dollarTol {
			bad("total cost $%.6f exceeds the user budget $%.6f beyond the chaos-attributable $%.6f (profiling $%.6f + training $%.6f, lost $%.6f)",
				r.TotalCost, a.UserCons.Budget, graceCost, r.Outcome.ProfileCost, r.TrainCost, r.LostCost)
		}
		wantSatisfied = r.TotalCost <= a.UserCons.Budget
	}
	if r.Satisfied != wantSatisfied {
		bad("report says satisfied=%v, arithmetic says %v", r.Satisfied, wantSatisfied)
	}
	return v
}

// checkQuarantine replays the censoring rules: failed probes carry no
// throughput, a key stops being probed once repeated failures
// quarantine it, feasible keys are never re-measured, no probe lands on
// a deployment the learned OOM boundary had already excluded, and the
// final pick is a real (non-censored, non-OOM) observation — the proxy
// for "censored probes never enter the surrogate".
func checkQuarantine(a *Artifacts) []Violation {
	var v []Violation
	bad := func(f string, args ...any) { v = append(v, Violation{InvQuarantine, fmt.Sprintf(f, args...)}) }

	// The search re-probes an infrastructure-failed deployment once
	// (core's failureRetries) before quarantining it.
	const failureRetries = 1
	failures := map[string]int{}
	measured := map[string]bool{}
	sharded := a.Job.Model.ShardedStates
	oomSharded, oomReplicated := 0.0, 0.0
	for _, st := range a.Report.Outcome.Steps {
		key := st.Deployment.Key()
		if failures[key] > failureRetries {
			bad("step %d probed quarantined %s (%d earlier failures)", st.Index, st.Deployment, failures[key])
		}
		if measured[key] && !st.Failed {
			bad("step %d re-measured already-profiled %s", st.Index, st.Deployment)
		}
		cap := nodeCapacityGiB(st.Deployment.Type)
		if sharded {
			if cap*float64(st.Deployment.Nodes) <= oomSharded {
				bad("step %d probed %s below the learned sharded OOM boundary (%.1f GiB)", st.Index, st.Deployment, oomSharded)
			}
		} else if cap > 0 && cap <= oomReplicated {
			bad("step %d probed %s below the learned OOM boundary (%.1f GiB/node)", st.Index, st.Deployment, oomReplicated)
		}
		switch {
		case st.Failed:
			if st.Throughput != 0 {
				bad("step %d failed but carries throughput %.3f", st.Index, st.Throughput)
			}
			failures[key]++
		case st.Throughput <= 0: // OOM teaches the memory boundary
			measured[key] = true
			if sharded {
				if total := cap * float64(st.Deployment.Nodes); total > oomSharded {
					oomSharded = total
				}
			} else if cap > oomReplicated {
				oomReplicated = cap
			}
		case st.Fidelity > 0:
			// A successful sub-sampled probe leaves the key open for its
			// confirming full probe; the fidelity invariants police the
			// low→full ordering.
		default:
			measured[key] = true
		}
	}

	out := a.Report.Outcome
	if out.Best.Nodes > 0 {
		ok := false
		for _, st := range out.Steps {
			if !st.Failed && st.Fidelity == 0 && st.Throughput > 0 && st.Deployment.Key() == out.Best.Key() && st.Throughput == out.BestThroughput {
				ok = true
				break
			}
		}
		if !ok {
			bad("picked %s (thr %.3f) does not match any successful full-fidelity measurement", out.Best, out.BestThroughput)
		}
	}
	return v
}

// checkRegret scores the pick against the exhaustive oracle: the chosen
// deployment must exist, be genuinely runnable, and sit within the
// case's regret bound of the true optimum.
func checkRegret(a *Artifacts) []Violation {
	var v []Violation
	bad := func(f string, args ...any) { v = append(v, Violation{InvRegret, fmt.Sprintf(f, args...)}) }
	out := a.Report.Outcome
	if out.Best.Nodes == 0 {
		bad("no deployment picked despite a non-empty feasible set (%d runnable)", a.Oracle.FeasibleCount())
		return v
	}
	e, ok := a.Oracle.Lookup(out.Best)
	if !ok {
		bad("picked %s is not in the deployment space", out.Best)
		return v
	}
	if !e.Feasible() {
		bad("picked %s cannot hold the model at ground truth", out.Best)
		return v
	}
	if a.Case.MaxRegret <= 0 {
		return v
	}
	if !out.Found {
		bad("pick %s is best-effort: no observation satisfied the constraint", out.Best)
	}
	regret, ok := a.Oracle.Regret(a.Scenario, a.UserCons, out.Best)
	if !ok {
		// The user constraint excludes every deployment; with slack-derived
		// constraints this cannot happen, so surface it.
		bad("oracle cannot score %s: feasible set empty under %v", out.Best, a.UserCons)
		return v
	}
	if regret > a.Case.MaxRegret {
		opt, _ := a.Oracle.Optimum(a.Scenario, a.UserCons)
		bad("regret %.3f exceeds bound %.3f: picked %s, optimum %s", regret, a.Case.MaxRegret, out.Best, opt.Deployment)
	}
	return v
}

// checkFidelity is conservation of the fidelity ledger: a sub-sampled
// probe may only run at a fraction the case actually offered, and it
// must be billed exactly the sub-sampled Eq. 7–8 price — a low probe
// billed at the full price (or vice versa) is a broken ledger even
// when the totals still fold. Fault-free the bill is exact; under a
// chaos plan a censored probe burns what it burns, so only successful
// measurements are priced. The trace must mirror each step's fidelity,
// so downstream consumers can tell bursts from full measurements.
func checkFidelity(a *Artifacts) []Violation {
	var v []Violation
	bad := func(f string, args ...any) { v = append(v, Violation{InvFidelity, fmt.Sprintf(f, args...)}) }

	out := a.Report.Outcome
	offered := func(f float64) bool {
		for _, g := range a.Case.Fidelities {
			if g == f {
				return true
			}
			// The profiler clamps requests below its floor up to it.
			if g < profiler.MinFidelity && f == profiler.MinFidelity {
				return true
			}
		}
		return false
	}
	for _, st := range out.Steps {
		if st.Fidelity == 0 {
			continue
		}
		if st.Fidelity < 0 || st.Fidelity >= 1 {
			bad("step %d carries fidelity %v outside (0,1)", st.Index, st.Fidelity)
			continue
		}
		if len(a.Case.Fidelities) == 0 {
			bad("step %d ran at fidelity %v but the case offers no ladder", st.Index, st.Fidelity)
			continue
		}
		if !offered(st.Fidelity) {
			bad("step %d ran at fidelity %v, not on the case ladder %v", st.Index, st.Fidelity, a.Case.Fidelities)
		}
		if !st.Failed {
			// The cluster pipeline books the sub-sampled burst exactly:
			// DurationAt for the run (an OOM crash still bills the booked
			// burst on this path) and the deployment's rate for the bill.
			// Under a chaos plan launch backoff legitimately stretches the
			// wall-clock past the burst, so the bill may only grow.
			wantT := profiler.DurationAt(st.Deployment.Nodes, st.Fidelity)
			wantC := profiler.CostAt(st.Deployment, st.Fidelity)
			if a.Case.Chaos == nil {
				if st.ProfileTime != wantT {
					bad("step %d at fidelity %v billed %v, want %v", st.Index, st.Fidelity, st.ProfileTime, wantT)
				}
				if !approxRel(st.ProfileCost, wantC, dollarTol) {
					bad("step %d at fidelity %v billed $%.9f, want $%.9f", st.Index, st.Fidelity, st.ProfileCost, wantC)
				}
			} else if st.ProfileTime < wantT {
				bad("step %d at fidelity %v billed %v < the burst price %v", st.Index, st.Fidelity, st.ProfileTime, wantT)
			}
		}
	}

	// Trace ↔ steps: the probe events must mirror each step's fidelity.
	var probes []int
	for i, e := range a.Trace.Events {
		if e.Kind == "probe" {
			probes = append(probes, i)
		}
	}
	if len(probes) == len(out.Steps) {
		for i, st := range out.Steps {
			if e := a.Trace.Events[probes[i]]; e.Fidelity != st.Fidelity {
				bad("step %d: trace fidelity %v ≠ step fidelity %v", st.Index, e.Fidelity, st.Fidelity)
			}
		}
	}
	return v
}

// checkFidelityPick is the promotion discipline: per deployment,
// sub-sampled probes may only refine upward (strictly higher fidelity,
// or the confirming full probe), nothing runs after the full
// measurement, and — the teeth of the invariant — the final pick's
// feasibility proof must rest on a full-fidelity measurement, never on
// an uncorrected biased reading.
func checkFidelityPick(a *Artifacts) []Violation {
	var v []Violation
	bad := func(f string, args ...any) { v = append(v, Violation{InvFidelityPick, fmt.Sprintf(f, args...)}) }

	out := a.Report.Outcome
	lowSeen := map[string]float64{}
	confirmed := map[string]bool{}
	for _, st := range out.Steps {
		if st.Failed {
			continue
		}
		key := st.Deployment.Key()
		if st.Fidelity > 0 && st.Throughput > 0 {
			if confirmed[key] {
				bad("step %d sub-sampled %s after its full measurement", st.Index, st.Deployment)
			}
			if prev, ok := lowSeen[key]; ok && st.Fidelity <= prev {
				bad("step %d re-probed %s at fidelity %v ≤ earlier %v (refinement must be strictly upward)",
					st.Index, st.Deployment, st.Fidelity, prev)
			}
			lowSeen[key] = st.Fidelity
			continue
		}
		confirmed[key] = true
	}

	if out.Best.Nodes > 0 && out.Found {
		if !confirmed[out.Best.Key()] {
			bad("picked %s rests on a sub-sampled reading: no full-fidelity measurement confirms it", out.Best)
		}
	}
	return v
}

// metricValue sums every series of one metric family in a Prometheus
// text exposition (labels included), returning 0 when absent.
func metricValue(text, family string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // longer family sharing the prefix
		}
		i := strings.LastIndexByte(rest, ' ')
		if i < 0 {
			continue
		}
		if f, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
			sum += f
		}
	}
	return sum
}
