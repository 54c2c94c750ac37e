package profiler

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/sim"
	"mlcd/internal/workload"
)

var cat = cloud.DefaultCatalog()

func dep(t *testing.T, name string, n int) cloud.Deployment {
	t.Helper()
	return cloud.NewDeployment(cat.MustLookup(name), n)
}

func TestDurationMatchesPaperModel(t *testing.T) {
	// §V-A: 10 minutes per probe, +1 minute per 3 extra nodes.
	cases := []struct {
		nodes int
		want  time.Duration
	}{
		{1, 10 * time.Minute},
		{2, 10 * time.Minute},
		{3, 10 * time.Minute},
		{4, 11 * time.Minute},
		{7, 12 * time.Minute},
		{10, 13 * time.Minute},
		{50, 26 * time.Minute},
		{100, 43 * time.Minute},
	}
	for _, c := range cases {
		if got := Duration(c.nodes); got != c.want {
			t.Errorf("Duration(%d) = %v, want %v", c.nodes, got, c.want)
		}
	}
}

func TestDurationPanicsOnBadNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Duration(0)
}

func TestCostEq8(t *testing.T) {
	// Eq. 8: C_profile = P(m) · n · T_profile.
	d := dep(t, "c5.4xlarge", 10)
	want := 0.68 * 10 * (13.0 / 60.0)
	if got := Cost(d); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
}

func TestProfilingExpensiveDeploymentsCostMore(t *testing.T) {
	// The heterogeneity HeterBO exploits: a big GPU probe is orders of
	// magnitude pricier than a single cheap CPU probe.
	cheap := Cost(dep(t, "c5.large", 1))
	pricey := Cost(dep(t, "p3.16xlarge", 50))
	if pricey/cheap < 100 {
		t.Fatalf("cost spread = %.0f×, want ≫100×", pricey/cheap)
	}
}

func TestSimProfilerMeasuresNearTruth(t *testing.T) {
	s := sim.New(7)
	p := NewSimProfiler(s)
	j := workload.ResNetCIFAR10
	d := dep(t, "c5.4xlarge", 10)
	r := p.Profile(j, d)
	true_ := s.Throughput(j, d)
	if math.Abs(r.Throughput-true_)/true_ > 0.1 {
		t.Fatalf("measured %v, truth %v", r.Throughput, true_)
	}
	if r.Duration < Duration(10) {
		t.Fatalf("duration %v below the base model", r.Duration)
	}
	if r.Cost != d.CostFor(r.Duration) {
		t.Fatalf("cost %v inconsistent with duration", r.Cost)
	}
	if r.Trials < 3 {
		t.Fatalf("trials = %d, want ≥3", r.Trials)
	}
}

func TestSimProfilerFreshNoisePerProbe(t *testing.T) {
	p := NewSimProfiler(sim.New(7))
	j := workload.ResNetCIFAR10
	d := dep(t, "c5.4xlarge", 10)
	a := p.Profile(j, d)
	b := p.Profile(j, d)
	if a.Throughput == b.Throughput {
		t.Fatal("repeated probes must see fresh measurement noise")
	}
}

func TestSimProfilerStabilityExtension(t *testing.T) {
	// Force instability by making the acceptance threshold tiny: the
	// probe must extend and fold in more trials (§IV Profiler).
	p := NewSimProfiler(sim.New(7))
	p.StabilityCV = 1e-9
	r := p.Profile(workload.ResNetCIFAR10, dep(t, "c5.4xlarge", 4))
	if !r.Extended {
		t.Fatal("probe must extend under an impossible stability bar")
	}
	if r.Duration != Duration(4)+p.Extension {
		t.Fatalf("extended duration = %v", r.Duration)
	}
	if r.Trials != 6 {
		t.Fatalf("trials = %d, want 6", r.Trials)
	}
}

func TestProfileInfeasibleDeploymentStillCosts(t *testing.T) {
	// OOM probes waste money — the punchline of heterogeneous cost.
	r := NewSimProfiler(sim.New(7)).Profile(workload.BERTTF, dep(t, "c5.large", 2))
	if r.Throughput != 0 {
		t.Fatalf("throughput = %v, want 0 (OOM)", r.Throughput)
	}
	if r.Cost <= 0 || r.Duration <= 0 {
		t.Fatal("failed probes must still be billed")
	}
}

// Property: probe duration is non-decreasing in node count and cost is
// exactly price·nodes·duration (Eqs. 7–8).
func TestQuickProbeCostModel(t *testing.T) {
	types := cat.Types()
	f := func(typeIdx uint8, nRaw uint8) bool {
		it := types[int(typeIdx)%len(types)]
		n := int(nRaw%100) + 1
		d := cloud.NewDeployment(it, n)
		dur := Duration(n)
		if n > 1 && dur < Duration(n-1) {
			return false
		}
		want := it.PricePerHr * float64(n) * dur.Hours()
		return math.Abs(Cost(d)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
