package mlcdsys

import (
	"context"
	"errors"
	"testing"
	"time"

	"mlcd/internal/chaos"
	"mlcd/internal/cloud"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

func TestAnalyzeScenario(t *testing.T) {
	s, c, err := AnalyzeScenario(Requirements{})
	if err != nil || s != search.FastestUnlimited || c != (search.Constraints{}) {
		t.Fatalf("unconstrained: %v %v %v", s, c, err)
	}
	s, c, err = AnalyzeScenario(Requirements{Deadline: 6 * time.Hour})
	if err != nil || s != search.CheapestWithDeadline || c.Deadline != 6*time.Hour {
		t.Fatalf("deadline: %v %v %v", s, c, err)
	}
	s, c, err = AnalyzeScenario(Requirements{Budget: 100})
	if err != nil || s != search.FastestWithBudget || c.Budget != 100 {
		t.Fatalf("budget: %v %v %v", s, c, err)
	}
	if _, _, err = AnalyzeScenario(Requirements{Deadline: time.Hour, Budget: 1}); !errors.Is(err, ErrConflictingRequirements) {
		t.Fatalf("conflicting requirements: err = %v", err)
	}
}

func TestPlatformAdapters(t *testing.T) {
	if len(platformWarmup) != 3 {
		t.Fatalf("platforms = %d", len(platformWarmup))
	}
	d1 := cloud.NewDeployment(cloud.DefaultCatalog().MustLookup("c5.xlarge"), 1)
	d40 := cloud.NewDeployment(cloud.DefaultCatalog().MustLookup("c5.xlarge"), 40)
	for p, base := range platformWarmup {
		if warmupTime(base, d40) <= warmupTime(base, d1) {
			t.Errorf("%v: warm-up must grow with cluster size", p)
		}
	}
}

// smallSystem builds a fast MLCD instance over a single-type space.
func smallSystem(t *testing.T, seed int64) *System {
	t.Helper()
	cat, err := cloud.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{
		Catalog: cat,
		Limits:  cloud.SpaceLimits{MaxCPUNodes: 50, MaxGPUNodes: 1},
		Seed:    seed,
	})
}

func TestDeployEndToEndBudget(t *testing.T) {
	sys := smallSystem(t, 1)
	rep, err := sys.Deploy(workload.ResNetCIFAR10, Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != search.FastestWithBudget {
		t.Fatalf("scenario = %v", rep.Scenario)
	}
	if !rep.Satisfied {
		t.Fatalf("HeterBO-driven MLCD must satisfy the budget; total $%.2f", rep.TotalCost)
	}
	if rep.TotalCost != rep.Outcome.ProfileCost+rep.TrainCost {
		t.Fatal("total cost must be profiling + training")
	}
	if rep.TrainTime <= 0 || rep.TotalTime < rep.TrainTime {
		t.Fatal("time accounting broken")
	}
	if len(rep.Outcome.Steps) < 2 {
		t.Fatal("the deployment engine must actually search")
	}
}

func TestDeployEndToEndDeadline(t *testing.T) {
	sys := smallSystem(t, 1)
	rep, err := sys.Deploy(workload.ResNetCIFAR10, Requirements{Deadline: 8 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfied {
		t.Fatalf("deadline must be met; total %v", rep.TotalTime)
	}
}

func TestDeployUnconstrained(t *testing.T) {
	sys := smallSystem(t, 1)
	rep, err := sys.Deploy(workload.ResNetCIFAR10, Requirements{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfied || rep.Scenario != search.FastestUnlimited {
		t.Fatalf("unconstrained deploy: %+v", rep)
	}
}

func TestDeployBillsThroughProvider(t *testing.T) {
	prov := cloud.NewSimProvider(cloud.DefaultQuota, time.Minute)
	cat, err := cloud.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	sys := New(Config{
		Catalog:  cat,
		Limits:   cloud.SpaceLimits{MaxCPUNodes: 40, MaxGPUNodes: 1},
		Provider: prov,
		Seed:     1,
	})
	rep, err := sys.Deploy(workload.ResNetCIFAR10, Requirements{Budget: 120})
	if err != nil {
		t.Fatal(err)
	}
	billed := prov.TotalBilled()
	if billed <= 0 {
		t.Fatal("provider must have billed cluster time")
	}
	// The provider's meter includes boot time for every probe cluster,
	// so it is at least the report's accounting minus rounding.
	if billed < rep.TotalCost*0.9 {
		t.Fatalf("provider billed $%.2f, report claims $%.2f", billed, rep.TotalCost)
	}
	// Every cluster must have been terminated (no leaked quota).
	cpu, gpu := prov.InUse()
	if cpu != 0 || gpu != 0 {
		t.Fatalf("leaked clusters: %d CPU, %d GPU nodes still in use", cpu, gpu)
	}
}

func TestDeployRejectsConflictingRequirements(t *testing.T) {
	sys := smallSystem(t, 1)
	if _, err := sys.Deploy(workload.ResNetCIFAR10, Requirements{Budget: 1, Deadline: time.Hour}); err == nil {
		t.Fatal("conflicting requirements must be rejected")
	}
}

func TestDeployRejectsInvalidJob(t *testing.T) {
	sys := smallSystem(t, 1)
	if _, err := sys.Deploy(workload.Job{}, Requirements{}); err == nil {
		t.Fatal("invalid job must be rejected")
	}
}

func TestDeployRejectsUnknownPlatform(t *testing.T) {
	sys := New(Config{
		Catalog: mustSubset(t, "c5.4xlarge"),
		Limits:  cloud.SpaceLimits{MaxCPUNodes: 10, MaxGPUNodes: 1},
		Seed:    1,
	})
	// A valid job on a platform with no warm-up entry.
	j := workload.ResNetCIFAR10
	j.Platform = workload.Platform(9)
	if _, err := sys.Deploy(j, Requirements{}); err == nil {
		t.Fatal("an unsupported platform must be rejected")
	}
}

func mustSubset(t *testing.T, names ...string) *cloud.Catalog {
	t.Helper()
	c, err := cloud.DefaultCatalog().Subset(names...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSystemDefaults(t *testing.T) {
	sys := New(Config{Seed: 3})
	if sys.Searcher().Name() != "heterbo" {
		t.Fatalf("default engine = %q, want heterbo", sys.Searcher().Name())
	}
	if sys.Space().Len() == 0 {
		t.Fatal("default space empty")
	}
}

// launchStorm wraps prov in a chaos plan that refuses each launch with
// probability rate, drawn from seed.
func launchStorm(prov cloud.Provider, rate float64, seed int64) *chaos.Provider {
	return chaos.Wrap(prov, chaos.Plan{
		Name:   "launch-errors",
		Faults: []chaos.Fault{{Kind: chaos.KindLaunchError, Rate: rate}},
	}, seed, nil)
}

func TestDeploySurvivesTransientFailures(t *testing.T) {
	prov := cloud.NewSimProvider(cloud.DefaultQuota, time.Minute)
	storm := launchStorm(prov, 0.35, 2)
	sys := New(Config{
		Catalog:  mustSubset(t, "c5.4xlarge"),
		Limits:   cloud.SpaceLimits{MaxCPUNodes: 40, MaxGPUNodes: 1},
		Provider: storm,
		Seed:     1,
	})
	rep, err := sys.Deploy(workload.ResNetCIFAR10, Requirements{Budget: 120})
	if err != nil {
		t.Fatalf("a 35%% transient failure rate must be survivable: %v", err)
	}
	if !rep.Satisfied {
		t.Fatalf("budget not satisfied: $%.2f", rep.TotalCost)
	}
	if storm.Injected(chaos.KindLaunchError) == 0 {
		t.Fatal("the failure injector never fired; the test exercised nothing")
	}
	cpu, gpu := prov.InUse()
	if cpu != 0 || gpu != 0 {
		t.Fatal("clusters leaked across retries")
	}
}

func TestDeployGivesUpUnderPersistentFailures(t *testing.T) {
	storm := launchStorm(cloud.NewSimProvider(cloud.DefaultQuota, time.Minute), 1.0, 99) // every launch fails
	sys := New(Config{
		Catalog:  mustSubset(t, "c5.4xlarge"),
		Limits:   cloud.SpaceLimits{MaxCPUNodes: 10, MaxGPUNodes: 1},
		Provider: storm,
		Seed:     1,
	})
	if _, err := sys.Deploy(workload.ResNetCIFAR10, Requirements{}); err == nil {
		t.Fatal("a fully broken control plane must surface an error")
	}
	if storm.Injected(chaos.KindLaunchError) == 0 {
		t.Fatal("the failure injector never fired; the test exercised nothing")
	}
}

// TestClusterProfileAt pins clusterProfiler's one probe body. At f ∈
// {0, 1, 1.5} ProfileAt is the full probe: on a twin system it returns
// exactly what Profile returns, and counts no low-fidelity probe. At
// f = 0.5 it runs a two-measurement burst billed at DurationAt, reports
// its fidelity, and counts once in mlcd_profile_lowfi_probes_total.
// Below MinFidelity it is the MinFidelity burst: measured, billed and
// reported at the floor, not at the requested fraction.
func TestClusterProfileAt(t *testing.T) {
	twin := func() (*System, *clusterProfiler) {
		sys := New(Config{Seed: 3, Provider: cloud.NewSimProvider(cloud.DefaultQuota, time.Minute)})
		return sys, &clusterProfiler{sys: sys, ctx: context.Background(), trials: make(map[string]int)}
	}
	j := workload.ResNetCIFAR10
	d := cloud.NewDeployment(cloud.DefaultCatalog().MustLookup("c5.4xlarge"), 4)
	for _, f := range []float64{0, 1, 1.5} {
		_, ref := twin()
		sys, p := twin()
		want := ref.Profile(j, d)
		if got := p.ProfileAt(j, d, f); got != want {
			t.Errorf("ProfileAt(f=%v) = %+v, want Profile's %+v", f, got, want)
		}
		if n := sys.m.probesLowFi.Value(); n != 0 {
			t.Errorf("ProfileAt(f=%v) counted %v low-fidelity probes, want 0", f, n)
		}
	}
	sys, p := twin()
	r := p.ProfileAt(j, d, 0.5)
	if r.Failed || r.Throughput <= 0 || r.Trials != 2 || r.Fidelity != 0.5 {
		t.Fatalf("burst = %+v, want a 2-trial measurement at fidelity 0.5", r)
	}
	if want := profiler.DurationAt(d.Nodes, 0.5); r.Duration != want {
		t.Fatalf("burst billed %v, want DurationAt %v", r.Duration, want)
	}
	if n := sys.m.probesLowFi.Value(); n != 1 {
		t.Fatalf("burst counted %v low-fidelity probes, want 1", n)
	}
	_, ref := twin()
	_, p = twin()
	want := ref.ProfileAt(j, d, profiler.MinFidelity)
	if got := p.ProfileAt(j, d, 0.01); got != want {
		t.Fatalf("ProfileAt(f=0.01) = %+v, want the MinFidelity burst %+v", got, want)
	}
}
