package profiler

import (
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/sim"
	"mlcd/internal/workload"
)

func fidDeployment(t *testing.T, typeName string, nodes int) cloud.Deployment {
	t.Helper()
	it, ok := cloud.DefaultCatalog().Lookup(typeName)
	if !ok {
		t.Fatalf("no catalog type %q", typeName)
	}
	return cloud.Deployment{Type: it, Nodes: nodes}
}

// TestDurationAtHandComputed pins Eq. 7 at fidelity f against hand
// arithmetic: DurationAt = floor + f·(Duration − floor), exactly full
// at f ≥ 1 and clamped at MinFidelity below the floor.
func TestDurationAtHandComputed(t *testing.T) {
	cases := []struct {
		nodes int
		f     float64
		want  time.Duration
	}{
		// 4 nodes: full probe 10 + ⌊3/3⌋ = 11 min.
		{4, 1.0, 11 * time.Minute},
		// f = 0.5: 2 + 0.5·(11−2) = 6.5 min.
		{4, 0.5, 6*time.Minute + 30*time.Second},
		// f = 0.1: 2 + 0.9 = 2.9 min.
		{4, 0.1, 2*time.Minute + 54*time.Second},
		// 1 node: full 10 min; f = 0.5 → 2 + 4 = 6 min.
		{1, 0.5, 6 * time.Minute},
		// Below the clamp floor: requested 0.01 runs at MinFidelity 0.05:
		// 2 + 0.05·8 = 2.4 min.
		{1, 0.01, 2*time.Minute + 24*time.Second},
		// Zero and ≥1 both mean full.
		{7, 0, 12 * time.Minute},
		{7, 1.5, 12 * time.Minute},
	}
	for _, c := range cases {
		if got := DurationAt(c.nodes, c.f); got != c.want {
			t.Errorf("DurationAt(%d, %v) = %v, want %v", c.nodes, c.f, got, c.want)
		}
	}
}

// TestCostAtHandComputed pins Eq. 8 at fidelity f: the deployment's
// hourly rate times the sub-sampled duration, exact at f = 1.
func TestCostAtHandComputed(t *testing.T) {
	d := fidDeployment(t, "c5.xlarge", 4) // $0.170/h/node · 4 = $0.68/h
	if got, want := CostAt(d, 1), Cost(d); got != want {
		t.Fatalf("CostAt(d, 1) = %v, want Cost(d) = %v", got, want)
	}
	// 6.5 min at $0.68/h = 0.68·6.5/60.
	want := 0.68 * 6.5 / 60
	if got := CostAt(d, 0.5); !close(got, want, 1e-9) {
		t.Fatalf("CostAt(d, 0.5) = %.9f, want %.9f", got, want)
	}
}

func close(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestProfileAtFullDelegates proves the byte-identity anchor at the
// profiler layer: ProfileAt at f ≥ 1 is the classic Profile call — same
// trial stream, same Result, Fidelity unset.
func TestProfileAtFullDelegates(t *testing.T) {
	d := fidDeployment(t, "c5.xlarge", 2)
	j := workload.ResNetCIFAR10
	a := NewSimProfiler(sim.New(11))
	b := NewSimProfiler(sim.New(11))
	ra := a.Profile(j, d)
	rb := b.ProfileAt(j, d, 1)
	if ra != rb {
		t.Fatalf("ProfileAt(f=1) = %+v, want Profile result %+v", rb, ra)
	}
	if rb.Fidelity != 0 {
		t.Fatalf("full probe carries fidelity %v, want unset", rb.Fidelity)
	}
}

// TestProfileAtLowFidelity checks the sub-sampled contract: the burst
// bills DurationAt exactly, reads below the full-fidelity ground truth
// on average (the gap model), and reports its delivered fidelity.
func TestProfileAtLowFidelity(t *testing.T) {
	d := fidDeployment(t, "c5.xlarge", 4)
	j := workload.ResNetCIFAR10
	s := sim.New(3)
	p := NewSimProfiler(s)
	r := p.ProfileAt(j, d, 0.5)
	if r.Fidelity != 0.5 {
		t.Fatalf("delivered fidelity %v, want 0.5", r.Fidelity)
	}
	if want := DurationAt(4, 0.5); r.Duration != want {
		t.Fatalf("billed %v, want %v", r.Duration, want)
	}
	if want := d.CostFor(DurationAt(4, 0.5)); !close(r.Cost, want, 1e-9) {
		t.Fatalf("billed $%.9f, want $%.9f", r.Cost, want)
	}
	if r.Trials != lowFidelityIters {
		t.Fatalf("burst took %d trials, want %d", r.Trials, lowFidelityIters)
	}
	if r.Throughput <= 0 {
		t.Fatal("feasible deployment read zero at low fidelity")
	}
	// The deterministic bias: the expected low reading sits below truth.
	if full, low := s.Throughput(j, d), s.ThroughputAt(j, d, 0.5); low >= full {
		t.Fatalf("sub-sampled expectation %.3f not below ground truth %.3f", low, full)
	}
}

// TestProfileAtOOM: an infeasible deployment crashes during model build
// regardless of burst length and is billed the short OOM abort.
func TestProfileAtOOM(t *testing.T) {
	d := fidDeployment(t, "c5.large", 1)
	j := workload.ZeRO8BJob // 8B parameters fit no single small node
	p := NewSimProfiler(sim.New(5))
	r := p.ProfileAt(j, d, 0.5)
	if r.Throughput != 0 || r.Failed {
		t.Fatalf("want clean OOM result, got %+v", r)
	}
	if r.Duration != OOMFailDuration {
		t.Fatalf("OOM billed %v, want %v", r.Duration, OOMFailDuration)
	}
	if r.Fidelity != 0.5 {
		t.Fatalf("OOM at low fidelity should report the requested fraction, got %v", r.Fidelity)
	}
}

// TestStabilityExtensionOnlyAtFullFidelity pins the one probe body's
// branch on fidelity: under an impossible stability bar a full probe
// extends (six trials, Duration+Extension), while a burst never does —
// it keeps its two trials and its DurationAt bill.
func TestStabilityExtensionOnlyAtFullFidelity(t *testing.T) {
	d := fidDeployment(t, "c5.4xlarge", 4)
	j := workload.ResNetCIFAR10
	p := NewSimProfiler(sim.New(7))
	p.StabilityCV = 1e-9
	full := p.ProfileAt(j, d, 1)
	if !full.Extended || full.Trials != 6 || full.Duration != Duration(4)+p.Extension {
		t.Fatalf("full probe under an impossible bar: %+v, want extended, 6 trials, %v", full, Duration(4)+p.Extension)
	}
	if full.Fidelity != 0 {
		t.Fatalf("full probe reports fidelity %v, want unset", full.Fidelity)
	}
	low := p.ProfileAt(j, d, 0.5)
	if low.Extended || low.Trials != 2 || low.Duration != DurationAt(4, 0.5) {
		t.Fatalf("burst under an impossible bar: %+v, want unextended, 2 trials, %v", low, DurationAt(4, 0.5))
	}
	if low.Fidelity != 0.5 {
		t.Fatalf("burst reports fidelity %v, want 0.5", low.Fidelity)
	}
}

// plainProfiler hides SimProfiler's fidelity support.
type plainProfiler struct{ inner *SimProfiler }

func (p plainProfiler) Profile(j workload.Job, d cloud.Deployment) Result {
	return p.inner.Profile(j, d)
}

// TestProbeAtFallback: a profiler without sub-sampling support runs a
// full probe, and the Result says so (Fidelity unset) — callers trust
// the delivered fidelity, so the books stay conserved.
func TestProbeAtFallback(t *testing.T) {
	d := fidDeployment(t, "c5.xlarge", 2)
	j := workload.ResNetCIFAR10
	r := ProbeAt(plainProfiler{NewSimProfiler(sim.New(9))}, j, d, 0.25)
	if r.Fidelity != 0 {
		t.Fatalf("fallback probe carries fidelity %v, want unset (full)", r.Fidelity)
	}
	if want := Duration(2); r.Duration != want {
		t.Fatalf("fallback billed %v, want the full price %v", r.Duration, want)
	}
}

// TestParseLadder pins which ladders mlcdd's and conformance's
// -fidelity flag accept: comma-separated rungs strictly inside (0, 1),
// spaces around a rung allowed, the empty string meaning no ladder.
func TestParseLadder(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
	}{
		{"", nil},
		{"0.25", []float64{0.25}},
		{"0.25,0.5", []float64{0.25, 0.5}},
		{" 0.5 , 0.75", []float64{0.5, 0.75}},
		{"0.01", []float64{0.01}}, // below MinFidelity: Fid clamps it at probe time
	} {
		got, err := ParseLadder(tc.in)
		if err != nil {
			t.Errorf("ParseLadder(%q) = %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseLadder(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseLadder(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
	for _, in := range []string{"0", "1", "1.5", "-0.25", "NaN", "Inf", "0.25,1", "0.25,", ",0.5", "abc", "0.25;0.5"} {
		if got, err := ParseLadder(in); err == nil {
			t.Errorf("ParseLadder(%q) = %v, want an error", in, got)
		}
	}
}
