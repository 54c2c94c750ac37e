package core

import (
	"bytes"
	"math"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

// The fidelity-adjusted stop-condition arithmetic, pinned against hand
// computation on one CPU and one GPU deployment at f ∈ {0.1, 0.5, 1.0}.
//
//	Eq. 7 at f:  t(f) = 2 min + f·(t_full − 2 min)
//	Eq. 8 at f:  C(f) = hourly rate · t(f)
//
// 4×c5.xlarge ($0.68/h, t_full = 11 min):
//	f=1.0 → 11 min,  $0.124667
//	f=0.5 → 6.5 min, $0.073667
//	f=0.1 → 2.9 min, $0.032867
// 1×p3.2xlarge ($3.06/h, t_full = 10 min):
//	f=1.0 → 10 min,  $0.51
//	f=0.5 → 6 min,   $0.306
//	f=0.1 → 2.8 min, $0.1428

// p32xlarge1 returns the single-node GPU deployment the table prices.
func p32xlarge1(t *testing.T) cloud.Deployment {
	t.Helper()
	cat, err := cloud.DefaultCatalog().Subset("p3.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return cloud.Deployment{Type: cat.Types()[0], Nodes: 1}
}

func TestPenaltyAtHandComputed(t *testing.T) {
	cpu, gpu := c5xlarge4(t), p32xlarge1(t)
	cases := []struct {
		name      string
		d         cloud.Deployment
		f         float64
		wantHours float64 // deadline-scenario penalty (Eq. 7 scaled)
		wantUSD   float64 // budget-scenario penalty (Eq. 8 scaled)
	}{
		{"cpu full", cpu, 1.0, 11.0 / 60, 0.68 * 11.0 / 60},
		{"cpu half", cpu, 0.5, 6.5 / 60, 0.68 * 6.5 / 60},
		{"cpu tenth", cpu, 0.1, 2.9 / 60, 0.68 * 2.9 / 60},
		{"gpu full", gpu, 1.0, 10.0 / 60, 3.06 * 10.0 / 60},
		{"gpu half", gpu, 0.5, 6.0 / 60, 3.06 * 6.0 / 60},
		{"gpu tenth", gpu, 0.1, 2.8 / 60, 3.06 * 2.8 / 60},
	}
	for _, c := range cases {
		timeScen := &state{scen: search.CheapestWithDeadline}
		if got := timeScen.penaltyFlat(c.d.Nodes, c.d.HourlyCost(), c.f); math.Abs(got-c.wantHours) > 1e-9 {
			t.Errorf("%s: time penalty = %.9f h, want %.9f h", c.name, got, c.wantHours)
		}
		budgetScen := &state{scen: search.FastestWithBudget}
		if got := budgetScen.penaltyFlat(c.d.Nodes, c.d.HourlyCost(), c.f); math.Abs(got-c.wantUSD) > 1e-9 {
			t.Errorf("%s: cost penalty = $%.9f, want $%.9f", c.name, got, c.wantUSD)
		}
		// At f = 1 the fidelity-adjusted penalty IS the paper's Eqs. 7–8.
		if c.f == 1.0 {
			if got := timeScen.penaltyFlat(c.d.Nodes, c.d.HourlyCost(), 1); got != profiler.Duration(c.d.Nodes).Hours() {
				t.Errorf("%s: full-fidelity time penalty diverged from Eq. 7", c.name)
			}
			if got := budgetScen.penaltyFlat(c.d.Nodes, c.d.HourlyCost(), 1); got != profiler.Cost(c.d) {
				t.Errorf("%s: full-fidelity cost penalty diverged from Eq. 8", c.name)
			}
		}
	}
}

// TestTEIPricesConfirmationDeadline: a sub-sampled probe's TEI headroom
// (Eq. 5 at fidelity f) charges the burst AND the confirming full probe.
// CPU table with the 1-hour training run (2 samples/s on stopJob):
//
//	f=1.0 → 11 min + 60 = 71 min
//	f=0.1 → 2.9 + 11 + 60 = 73.9 min
//	f=0.5 → 6.5 + 11 + 60 = 77.5 min
//
// A 75-minute deadline therefore admits full and f=0.1 but not f=0.5.
func TestTEIPricesConfirmationDeadline(t *testing.T) {
	d := c5xlarge4(t)
	// optimistic throughput 2 samples/s ⇒ log-objective log(2 / $0.68).
	opt := math.Log(2 / d.HourlyCost())
	mk := func(deadline time.Duration) *state {
		return &state{
			job:  stopJob(),
			scen: search.CheapestWithDeadline,
			cons: search.Constraints{Deadline: deadline},
		}
	}
	st := mk(75 * time.Minute)
	if !st.teiPositiveAt(d, 1, opt) {
		t.Error("full probe (71 min total) must fit the 75-min deadline")
	}
	if !st.teiPositiveAt(d, 0.1, opt) {
		t.Error("f=0.1 (73.9 min with confirmation) must fit the 75-min deadline")
	}
	if st.teiPositiveAt(d, 0.5, opt) {
		t.Error("f=0.5 (77.5 min with confirmation) must NOT fit the 75-min deadline")
	}
	// Exact boundary: 77.5 minutes admits f=0.5 with zero slack.
	if !mk(77*time.Minute+30*time.Second).teiPositiveAt(d, 0.5, opt) {
		t.Error("f=0.5 must fit a 77.5-min deadline exactly")
	}
	if mk(77*time.Minute+29*time.Second).teiPositiveAt(d, 0.5, opt) {
		t.Error("f=0.5 must miss a deadline one second short of 77.5 min")
	}
}

// TestTEIPricesConfirmationBudget: same property on the GPU under Eq. 6.
// 1×p3.2xlarge, optimistic 2 samples/s ⇒ 1 h training = $3.06:
//
//	f=1.0 → 0.51 + 3.06 = $3.57
//	f=0.1 → 0.1428 + 0.51 + 3.06 = $3.7128
//	f=0.5 → 0.306 + 0.51 + 3.06 = $3.876
func TestTEIPricesConfirmationBudget(t *testing.T) {
	d := p32xlarge1(t)
	opt := math.Log(2) // FastestWithBudget objective is raw throughput
	mk := func(budget float64) *state {
		return &state{
			job:  stopJob(),
			scen: search.FastestWithBudget,
			cons: search.Constraints{Budget: budget},
		}
	}
	st := mk(3.60)
	if !st.teiPositiveAt(d, 1, opt) {
		t.Error("full probe ($3.57 total) must fit the $3.60 budget")
	}
	if st.teiPositiveAt(d, 0.1, opt) {
		t.Error("f=0.1 ($3.7128 with confirmation) must NOT fit the $3.60 budget")
	}
	if st.teiPositiveAt(d, 0.5, opt) {
		t.Error("f=0.5 ($3.876 with confirmation) must NOT fit the $3.60 budget")
	}
	if !mk(3.88).teiPositiveAt(d, 0.5, opt) {
		t.Error("f=0.5 must fit a $3.88 budget")
	}
}

// TestAdmissibleAtSubSampleWidensGate: the protective reserve prices
// the probe alone (its confirmation is the TEI check's concern), so a
// candidate too dear to probe in full can still be reached sub-sampled.
// Deadline 2 h tightens to 114 min; reserve = 60-min fallback. Spending
// 47.5 min leaves full-probe headroom 114−47.5−11 = 55.5 < 60 but
// f=0.5 headroom 114−47.5−6.5 = 60 exactly.
func TestAdmissibleAtSubSampleWidensGate(t *testing.T) {
	d := c5xlarge4(t)
	st := &state{
		job:  stopJob(),
		scen: search.CheapestWithDeadline,
		cons: search.Constraints{Deadline: 2 * time.Hour},
		obs: []search.Observation{
			{Deployment: d, Throughput: 2},
		},
		spentTime: 47*time.Minute + 30*time.Second,
	}
	gate := st.reserveGateNow()
	if gate.admits(d.Nodes, d.HourlyCost(), 1) {
		t.Error("full probe must starve the 60-min reserve (55.5 min headroom)")
	}
	if !gate.admits(d.Nodes, d.HourlyCost(), 0.5) {
		t.Error("f=0.5 probe must leave exactly the 60-min reserve")
	}
	if !gate.admits(d.Nodes, d.HourlyCost(), 0.1) {
		t.Error("f=0.1 probe must leave 63.6 min ≥ reserve")
	}
}

// TestFidelityOptionsMenu: the sweep's offered menu is descending with
// full first, and the classic search offers full probes only.
func TestFidelityOptionsMenu(t *testing.T) {
	st := &state{opts: Options{}.withDefaults()}
	if got := st.sweepMenu(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("classic search menu = %v, want [1]", got)
	}
	st.opts = Options{Fidelities: []float64{0.5, 0.1, 0.3}}.withDefaults()
	want := []float64{1, 0.5, 0.3, 0.1}
	got := st.sweepMenu()
	if len(got) != len(want) {
		t.Fatalf("menu = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("menu = %v, want %v", got, want)
		}
	}
}

// TestOptionsNormalizeFidelities: out-of-range rungs are dropped, the
// ladder is sorted and deduplicated, and an all-invalid ladder
// normalizes to nil — the classic search.
func TestOptionsNormalizeFidelities(t *testing.T) {
	o := Options{Fidelities: []float64{0.5, 1.0, 0.1, 0, -3, 0.5, 1.7}}.withDefaults()
	if len(o.Fidelities) != 2 || o.Fidelities[0] != 0.1 || o.Fidelities[1] != 0.5 {
		t.Fatalf("normalized ladder = %v, want [0.1 0.5]", o.Fidelities)
	}
	if o := (Options{Fidelities: []float64{1.0, 0, 2.5}}).withDefaults(); o.Fidelities != nil {
		t.Fatalf("all-invalid ladder = %v, want nil", o.Fidelities)
	}
}

// TestFullFidelityTraceByteIdentical is the end-to-end byte-identity
// property: arming the fidelity machinery without any usable rung
// (Fidelities that normalize away) leaves the
// search's full trace — every probe, score, and ledger entry — byte
// for byte what the classic configuration produces.
func TestFullFidelityTraceByteIdentical(t *testing.T) {
	j := workload.ResNetCIFAR10
	run := func(opts Options) []byte {
		rec := obs.NewRecorder(4)
		sink := rec.Start("job", j.Name, "", "scenario-1")
		opts.Tracer = sink
		_, prof := newProf(5)
		mustSearch(t, New(opts), j, scaleOut, search.FastestUnlimited, search.Constraints{}, prof)
		tr, ok := rec.Get("job")
		if !ok {
			t.Fatal("no trace recorded")
		}
		b, err := obs.MarshalTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	classic := run(Options{Seed: 9})
	armed := run(Options{Seed: 9, Fidelities: []float64{1.0, 0, -0.5, 1.7}})
	if !bytes.Equal(classic, armed) {
		t.Fatalf("traces diverged at full fidelity:\n--- classic ---\n%s\n--- armed ---\n%s", classic, armed)
	}
	if !bytes.Equal(classic, run(Options{Seed: 9})) {
		t.Fatal("classic trace not deterministic under fixed seed")
	}
}

// TestLadderSearchProbesLowAndConfirmsPick: a ladder-armed search on the
// simulator takes at least one sub-sampled probe, never lets a biased
// reading into the observation list it picks from, and the final pick is
// always confirmed by a full-fidelity measurement.
func TestLadderSearchProbesLowAndConfirmsPick(t *testing.T) {
	j := workload.ResNetCIFAR10
	_, prof := newProf(5)
	h := New(Options{Seed: 9, Fidelities: []float64{0.25, 0.5}})
	out := mustSearch(t, h, j, scaleOut, search.FastestUnlimited, search.Constraints{}, prof)
	if !out.Found {
		t.Fatal("ladder search must still find a deployment")
	}
	sawLow := false
	confirmed := map[string]bool{}
	for _, st := range out.Steps {
		if st.Fidelity > 0 {
			sawLow = true
			if st.Fidelity != 0.25 && st.Fidelity != 0.5 {
				t.Fatalf("step %d ran off-ladder fidelity %v", st.Index, st.Fidelity)
			}
			// Sub-sampled bills shrink accordingly.
			if want := profiler.DurationAt(st.Deployment.Nodes, st.Fidelity); st.ProfileTime != want {
				t.Fatalf("low step %d billed %v, want %v", st.Index, st.ProfileTime, want)
			}
		} else if !st.Failed && st.Throughput > 0 {
			confirmed[st.Deployment.Key()] = true
		}
	}
	if !sawLow {
		t.Fatal("ladder search on seed 9 took no sub-sampled probe (tune the seed if the search changed)")
	}
	if !confirmed[out.Best.Key()] {
		t.Fatalf("pick %v lacks a full-fidelity measurement", out.Best)
	}
}
