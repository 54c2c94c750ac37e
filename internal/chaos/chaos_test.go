package chaos

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/obs"
)

// testDeployment returns a small deployment from the default catalog.
func testDeployment(t *testing.T) cloud.Deployment {
	t.Helper()
	cat := cloud.DefaultCatalog()
	it, ok := cat.Lookup("c5.xlarge")
	if !ok {
		t.Fatal("catalog is missing c5.xlarge")
	}
	return cloud.Deployment{Type: it, Nodes: 2}
}

func TestFaultValidation(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
		want string
	}{
		{"unknown kind", Fault{Kind: "meteor_strike"}, "unknown fault kind"},
		{"rate above one", Fault{Kind: KindLaunchError, Rate: 1.5}, "outside [0,1]"},
		{"negative count", Fault{Kind: KindLaunchError, Count: -1}, "negative"},
		{"empty window", Fault{Kind: KindBrownout, FromHours: 2, UntilHours: 1}, "is empty"},
		{"at_fraction one", Fault{Kind: KindSpotInterrupt, AtFraction: 1}, "outside [0,1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	ok := Fault{Kind: KindSpotInterrupt, Rate: 1, Count: 2, AtFraction: 0.6, MinRunMinutes: 25}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid fault rejected: %v", err)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	for _, p := range Plans() {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal %s: %v", p.Name, err)
		}
		got, err := ParsePlan(b)
		if err != nil {
			t.Fatalf("ParsePlan(%s): %v", p.Name, err)
		}
		b2, _ := json.Marshal(got)
		if string(b) != string(b2) {
			t.Fatalf("plan %s did not round-trip:\n  %s\n  %s", p.Name, b, b2)
		}
	}
	if _, err := ParsePlan([]byte(`{"faults":[]}`)); err == nil {
		t.Fatal("ParsePlan accepted a nameless plan")
	}
	if _, err := ParsePlan([]byte(`{`)); err == nil {
		t.Fatal("ParsePlan accepted malformed JSON")
	}
	if _, err := ParsePlan([]byte(`{"name":"x","faults":[{"kind":"nope"}]}`)); err == nil {
		t.Fatal("ParsePlan accepted an unknown fault kind")
	}
}

func TestPlanByName(t *testing.T) {
	for _, want := range []string{"launch-storm", "spot-interrupt", "waitready-timeout", "brownout"} {
		p, ok := PlanByName(want)
		if !ok || p.Name != want {
			t.Fatalf("PlanByName(%q) = %v, %v", want, p.Name, ok)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("builtin plan %s invalid: %v", want, err)
		}
	}
	if _, ok := PlanByName("no-such-plan"); ok {
		t.Fatal("PlanByName resolved a nonexistent plan")
	}
}

func TestLaunchErrorBurnsDelayAndCountsOut(t *testing.T) {
	inner := cloud.NewSimProvider(cloud.Quota{}, 0)
	plan := Plan{Name: "t", Faults: []Fault{
		{Kind: KindLaunchError, Rate: 1, Count: 2, DelaySeconds: 45},
	}}
	reg := obs.NewRegistry()
	p := Wrap(inner, plan, 1, reg)
	d := testDeployment(t)

	for i := 0; i < 2; i++ {
		before := inner.Now()
		if _, err := p.Launch(d); !errors.Is(err, cloud.ErrTransient) {
			t.Fatalf("launch %d: err = %v, want ErrTransient", i, err)
		}
		if burned := inner.Now() - before; burned != 45*time.Second {
			t.Fatalf("launch %d burned %s, want 45s", i, burned)
		}
	}
	// A refused launch books no quota.
	if cpu, gpu := inner.InUse(); cpu != 0 || gpu != 0 {
		t.Fatalf("InUse = (%d, %d) after two refusals, want (0, 0)", cpu, gpu)
	}
	// Count exhausted: the third launch must go through.
	cl, err := p.Launch(d)
	if err != nil {
		t.Fatalf("launch after count exhausted: %v", err)
	}
	if err := p.WaitReady(cl); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if got := p.Injected(KindLaunchError); got != 2 {
		t.Fatalf("Injected(launch_error) = %d, want 2", got)
	}
	if got := p.counters[KindLaunchError].Value(); got != 2 {
		t.Fatalf("mlcd_chaos_faults_total{kind=launch_error} = %v, want 2", got)
	}
}

func TestWaitTimeoutIsTypedAndBurnsHang(t *testing.T) {
	inner := cloud.NewSimProvider(cloud.Quota{}, 0)
	plan := Plan{Name: "t", Faults: []Fault{
		{Kind: KindWaitTimeout, Rate: 1, Count: 1, HangMinutes: 15},
	}}
	p := Wrap(inner, plan, 1, nil)
	cl, err := p.Launch(testDeployment(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	before := inner.Now()
	err = p.WaitReady(cl)
	var wt *cloud.WaitTimeout
	if !errors.As(err, &wt) {
		t.Fatalf("WaitReady err = %v, want *cloud.WaitTimeout", err)
	}
	if wt.Waited != 15*time.Minute {
		t.Fatalf("Waited = %s, want 15m", wt.Waited)
	}
	if !errors.Is(err, cloud.ErrWaitTimeout) {
		t.Fatal("WaitTimeout does not unwrap to ErrWaitTimeout")
	}
	if burned := inner.Now() - before; burned != 15*time.Minute {
		t.Fatalf("hang burned %s, want 15m", burned)
	}
	// The cluster was booked the whole wait: its meter must reflect it.
	if billed := cl.Billed(inner.Now()); billed <= 0 {
		t.Fatalf("hung cluster billed %v, want > 0", billed)
	}
	if err := p.Terminate(cl); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
}

func TestSpotInterruptionBillsPartialRun(t *testing.T) {
	inner := cloud.NewSimProvider(cloud.Quota{}, 0)
	plan := Plan{Name: "t", Faults: []Fault{
		{Kind: KindSpotInterrupt, Rate: 1, Count: 1, AtFraction: 0.6, MinRunMinutes: 25},
	}}
	p := Wrap(inner, plan, 1, nil)
	d := testDeployment(t)
	cl, err := p.Launch(d)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := p.WaitReady(cl); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}

	// A short run is under min_run_minutes and must pass untouched.
	if elapsed, err := p.Run(cl, 10*time.Minute); err != nil || elapsed != 10*time.Minute {
		t.Fatalf("short run: elapsed %s, err %v; want 10m, nil", elapsed, err)
	}

	// The long run is reclaimed at 60%.
	elapsed, err := p.Run(cl, time.Hour)
	var spot *cloud.SpotInterruption
	if !errors.As(err, &spot) {
		t.Fatalf("long run err = %v, want *cloud.SpotInterruption", err)
	}
	want := 36 * time.Minute
	if elapsed != want || spot.Ran != want {
		t.Fatalf("elapsed %s, Ran %s; want both %s", elapsed, spot.Ran, want)
	}
	// Only the partial run is on the clock and the meter.
	if got := inner.Now(); got != 10*time.Minute+want {
		t.Fatalf("clock at %s, want %s", got, 10*time.Minute+want)
	}
	if billed, wantBill := cl.Billed(inner.Now()), d.CostFor(46*time.Minute); billed != wantBill {
		t.Fatalf("billed %v, want %v (partial run)", billed, wantBill)
	}
	// Fault count exhausted: the retry runs to completion.
	if elapsed, err := p.Run(cl, time.Hour); err != nil || elapsed != time.Hour {
		t.Fatalf("resumed run: elapsed %s, err %v; want 1h, nil", elapsed, err)
	}
}

func TestStragglerStretchesRun(t *testing.T) {
	inner := cloud.NewSimProvider(cloud.Quota{}, 0)
	plan := Plan{Name: "t", Faults: []Fault{
		{Kind: KindStraggler, Rate: 1, Count: 1, Slowdown: 1.5},
	}}
	p := Wrap(inner, plan, 1, nil)
	cl, err := p.Launch(testDeployment(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := p.WaitReady(cl); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	elapsed, err := p.Run(cl, 20*time.Minute)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed != 30*time.Minute {
		t.Fatalf("straggled run elapsed %s, want 30m", elapsed)
	}
	if inner.Now() != 30*time.Minute {
		t.Fatalf("clock at %s, want 30m (stretch is billed)", inner.Now())
	}
}

func TestBrownoutWindowGatesOnVirtualClock(t *testing.T) {
	inner := cloud.NewSimProvider(cloud.Quota{}, 0)
	plan := Plan{Name: "t", Faults: []Fault{
		{Kind: KindBrownout, FromHours: 0.1, UntilHours: 0.2, DelaySeconds: 60},
	}}
	p := Wrap(inner, plan, 1, nil)
	d := testDeployment(t)

	// Before the window: clean.
	cl, err := p.Launch(d)
	if err != nil {
		t.Fatalf("pre-window Launch: %v", err)
	}
	if err := p.WaitReady(cl); err != nil {
		t.Fatalf("pre-window WaitReady: %v", err)
	}

	// Step into the window: every control-plane call bounces.
	p.Advance(6 * time.Minute)
	if _, err := p.Launch(d); !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("in-window Launch err = %v, want ErrTransient", err)
	}
	if err := p.WaitReady(cl); !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("in-window WaitReady err = %v, want ErrTransient", err)
	}
	if err := p.Terminate(cl); !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("in-window Terminate err = %v, want ErrTransient", err)
	}

	// Past the window: clean again. (The bounced calls above burned 3×60s
	// of delay on top of the 6m step, so we are already past 12m.)
	p.Advance(10 * time.Minute)
	if _, err := p.Launch(d); err != nil {
		t.Fatalf("post-window Launch: %v", err)
	}
	if err := p.Terminate(cl); err != nil {
		t.Fatalf("post-window Terminate: %v", err)
	}
	if got := p.Injected(KindBrownout); got != 3 {
		t.Fatalf("Injected(brownout) = %d, want 3", got)
	}
}

func TestTerminateErrorLeaksBilling(t *testing.T) {
	inner := cloud.NewSimProvider(cloud.Quota{}, 0)
	plan := Plan{Name: "t", Faults: []Fault{
		{Kind: KindTerminateError, Rate: 1, Count: 1},
	}}
	p := Wrap(inner, plan, 1, nil)
	cl, err := p.Launch(testDeployment(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := p.WaitReady(cl); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if err := p.Terminate(cl); !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("Terminate err = %v, want ErrTransient", err)
	}
	if cl.State == cloud.ClusterTerminated {
		t.Fatal("cluster terminated despite injected error")
	}
	// The retry gets through (count exhausted) and stops the meter.
	if err := p.Terminate(cl); err != nil {
		t.Fatalf("Terminate retry: %v", err)
	}
}

// script drives a fixed call sequence and records the injection ledger.
func script(seed int64) (string, []int) {
	inner := cloud.NewSimProvider(cloud.Quota{}, 0)
	plan := Plan{Name: "t", Faults: []Fault{
		{Kind: KindLaunchError, Rate: 0.5, Count: 6, DelaySeconds: 30},
		{Kind: KindSpotInterrupt, Rate: 0.5, AtFraction: 0.5, MinRunMinutes: 25},
	}}
	p := Wrap(inner, plan, seed, nil)
	cat := cloud.DefaultCatalog()
	it, _ := cat.Lookup("c5.xlarge")
	d := cloud.Deployment{Type: it, Nodes: 2}

	var log strings.Builder
	for i := 0; i < 20; i++ {
		cl, err := p.Launch(d)
		if err != nil {
			log.WriteString("L!")
			continue
		}
		log.WriteString("L.")
		_ = p.WaitReady(cl)
		if _, err := p.Run(cl, 30*time.Minute); err != nil {
			log.WriteString("R!")
		} else {
			log.WriteString("R.")
		}
		_ = p.Terminate(cl)
	}
	ledger := []int{p.Injected(KindLaunchError), p.Injected(KindSpotInterrupt)}
	return log.String(), ledger
}

func TestSeededInjectionIsDeterministic(t *testing.T) {
	log1, led1 := script(42)
	log2, led2 := script(42)
	if log1 != log2 {
		t.Fatalf("same seed, different call outcomes:\n  %s\n  %s", log1, log2)
	}
	if led1[0] != led2[0] || led1[1] != led2[1] {
		t.Fatalf("same seed, different ledgers: %v vs %v", led1, led2)
	}
	if led1[0] == 0 && led1[1] == 0 {
		t.Fatal("script with rate-0.5 faults injected nothing; seed choice is useless")
	}
	// A different seed is allowed to differ; we only require it to still
	// respect the per-fault count cap.
	_, led3 := script(7)
	if led3[0] > 6 {
		t.Fatalf("count cap violated: %d launch errors with Count 6", led3[0])
	}
}
