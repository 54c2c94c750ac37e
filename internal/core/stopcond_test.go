package core

import (
	"math"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

// The stop-condition arithmetic of DESIGN §1 Eqs. 5–8, pinned against
// hand-computed values. The job is sized so the numbers stay exact:
// 7 200 samples at 2 samples/s is one hour of training on the nose.
//
//	Eq. 5/6 (headroom):  tightened limit − spent − probe price
//	Eq. 7   (t_profile): 10 min + ⌊(n−1)/3⌋ min
//	Eq. 8   (C_profile): P(m) · n · t_profile
//
// On 4×c5.xlarge ($0.170/hr each): t_profile = 11 min,
// C_profile = $0.68 · 11/60 = $0.124667, reserve = 1 h / $0.68.

// stopJob returns the 7 200-sample, single-epoch job.
func stopJob() workload.Job {
	j := workload.ResNetCIFAR10
	j.Dataset.Samples = 7200
	j.Epochs = 1
	return j
}

// c5xlarge4 returns the 4×c5.xlarge deployment the table below prices.
func c5xlarge4(t *testing.T) cloud.Deployment {
	t.Helper()
	cat, err := cloud.DefaultCatalog().Subset("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return cloud.Deployment{Type: cat.Types()[0], Nodes: 4}
}

func TestProfilingCostModelHandComputed(t *testing.T) {
	d := c5xlarge4(t)

	// Eq. 7: the probe lasts 10 minutes plus one minute per 3 extra nodes.
	durations := map[int]time.Duration{
		1:  10 * time.Minute,
		3:  10 * time.Minute,
		4:  11 * time.Minute,
		7:  12 * time.Minute,
		10: 13 * time.Minute,
	}
	for n, want := range durations {
		if got := profiler.Duration(n); got != want {
			t.Errorf("Duration(%d) = %v, want %v", n, got, want)
		}
	}

	// Eq. 8: 4 nodes × $0.170/hr for 11 minutes.
	wantCost := 0.68 * 11.0 / 60.0
	if got := profiler.Cost(d); math.Abs(got-wantCost) > 1e-9 {
		t.Errorf("Cost(4×c5.xlarge) = %.9f, want %.9f", got, wantCost)
	}

	// Training estimates at 2 samples/s: exactly one hour, $0.68.
	j := stopJob()
	if got := search.EstTrainTime(j, 2); got != time.Hour {
		t.Errorf("EstTrainTime = %v, want 1h", got)
	}
	if got := search.EstTrainCost(j, d, 2); math.Abs(got-0.68) > 1e-9 {
		t.Errorf("EstTrainCost = %.9f, want 0.68", got)
	}
}

func TestTightenedConstraintsHandComputed(t *testing.T) {
	st := &state{cons: search.Constraints{Deadline: 2 * time.Hour, Budget: 2}}
	tight := st.tightened()
	if want := 114 * time.Minute; tight.Deadline != want {
		t.Errorf("tightened deadline = %v, want %v", tight.Deadline, want)
	}
	if math.Abs(tight.Budget-1.9) > 1e-12 {
		t.Errorf("tightened budget = %v, want 1.9", tight.Budget)
	}
}

// TestAdmissibleDeadlineBoundary walks Eq. 5 across its exact boundary.
// Deadline 2 h tightens to 114 min; the probe eats 11 min leaving a
// 103-min budget; the reserve holds the 60-min fallback training run.
// Spending 43 min leaves headroom exactly 60 — still admissible; one
// more minute starves the fallback.
func TestAdmissibleDeadlineBoundary(t *testing.T) {
	d := c5xlarge4(t)
	mk := func(spent time.Duration) *state {
		return &state{
			job:  stopJob(),
			scen: search.CheapestWithDeadline,
			cons: search.Constraints{Deadline: 2 * time.Hour},
			obs: []search.Observation{
				{Deployment: d, Throughput: 2},
			},
			spentTime: spent,
		}
	}
	cases := []struct {
		spent time.Duration
		want  bool
	}{
		{0, true},
		{43 * time.Minute, true},   // headroom = 60 min = reserve, boundary holds
		{44 * time.Minute, false},  // headroom = 59 min < 60-min reserve
		{103 * time.Minute, false}, // headroom = 0: the probe itself no longer fits
		{114 * time.Minute, false}, // past the tightened deadline entirely
	}
	for _, c := range cases {
		if got := mk(c.spent).admissible(d); got != c.want {
			t.Errorf("admissible with spent=%v: got %v, want %v", c.spent, got, c.want)
		}
	}

	// With the reserve disabled the same starved state turns admissible —
	// the ablation switch the conformance suite uses to prove its
	// invariant engine catches a broken reserve.
	st := mk(44 * time.Minute)
	st.opts.DisableReserve = true
	if !st.admissible(d) {
		t.Error("DisableReserve should bypass the reserve check")
	}
}

// TestAdmissibleBudgetBoundary walks Eq. 6 the same way. Budget $2
// tightens to $1.90; the probe costs $0.124667 and the fallback run
// $0.68, so the last admissible spend is 1.90 − 0.124667 − 0.68 =
// $1.095333.
func TestAdmissibleBudgetBoundary(t *testing.T) {
	d := c5xlarge4(t)
	mk := func(spent float64) *state {
		return &state{
			job:  stopJob(),
			scen: search.FastestWithBudget,
			cons: search.Constraints{Budget: 2},
			obs: []search.Observation{
				{Deployment: d, Throughput: 2},
			},
			spentCost: spent,
		}
	}
	cases := []struct {
		spent float64
		want  bool
	}{
		{0, true},
		{1.095, true},
		{1.096, false},
		{1.776, false}, // headroom ≈ 0: the probe price exhausts the budget
		{1.9, false},
	}
	for _, c := range cases {
		if got := mk(c.spent).admissible(d); got != c.want {
			t.Errorf("admissible with spent=$%.3f: got %v, want %v", c.spent, got, c.want)
		}
	}
}

// TestReserveOnlyBindsWithFallback: before any feasible observation
// exists, exploring is the only route to feasibility, so only the probe
// price itself gates admission (the reserve term of Eqs. 5–6 is
// vacuous).
func TestReserveOnlyBindsWithFallback(t *testing.T) {
	d := c5xlarge4(t)
	st := &state{
		job:       stopJob(),
		scen:      search.CheapestWithDeadline,
		cons:      search.Constraints{Deadline: 2 * time.Hour},
		spentTime: 100 * time.Minute, // way past any reserve, but no fallback yet
	}
	if !st.admissible(d) {
		t.Error("with no observations the reserve must not bind; only the probe price gates")
	}
	st.spentTime = 103 * time.Minute // 114 − 103 − 11 = 0: probe no longer fits
	if st.admissible(d) {
		t.Error("probe that exactly exhausts the tightened deadline must be inadmissible")
	}
}
