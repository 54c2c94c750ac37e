package mlcdapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mlcd/internal/chaos"
	"mlcd/internal/cloud"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/obs"
)

// chaosDeadlineHours and chaosBudgetUSD are the constraints the chaos
// jobs must satisfy *despite* the fault plan: Tmax for the scenario-2
// job and Cmax for the scenario-3 job. They carry more headroom than
// the fault-free e2e constraints because interrupted work is billed
// and redone — surviving the plan is the point, not spending nothing.
const (
	chaosDeadlineHours = 12
	chaosBudgetUSD     = 150
)

// chaosRun captures one full pass through the service under a fault
// plan: terminal submissions, raw traces, /metrics, and what the chaos
// provider actually injected.
type chaosRun struct {
	subs     []submissionJSON
	traces   [][]byte
	metrics  string
	injected map[chaos.Kind]int
	total    int
}

// runChaosStack boots the daemon stack with the named builtin fault
// plan armed between the system and the SimProvider, then drives the
// standard scenario-2 and scenario-3 jobs to completion. Training is
// checkpointed every 30 virtual minutes so a spot interruption loses at
// most one partial chunk.
func runChaosStack(t *testing.T, planName string) chaosRun {
	t.Helper()
	cat, err := cloud.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	plan, ok := chaos.PlanByName(planName)
	if !ok {
		t.Fatalf("no builtin plan %q", planName)
	}
	// One registry shared by the chaos provider and the system, so the
	// injected-fault counters land on the same /metrics exposition the
	// reconciliation below reads.
	reg := obs.NewRegistry()
	inner := cloud.NewSimProvider(cloud.Quota{MaxCPUNodes: 40, MaxGPUNodes: 1}, 2*time.Minute)
	provider := chaos.Wrap(inner, plan, 11, reg)
	sys := mlcdsys.New(mlcdsys.Config{
		Catalog:  cat,
		Limits:   cloud.SpaceLimits{MaxCPUNodes: 40, MaxGPUNodes: 1},
		Provider: provider,
		Metrics:  reg,
		Seed:     1,
		Resilience: mlcdsys.Resilience{
			CheckpointEvery: 30 * time.Minute,
		},
	})
	srv, err := NewServerWithConfig(sys, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv)
	defer hts.Close()
	defer srv.Close()

	bodies := []string{
		`{"job":"resnet-cifar10","deadline_hours":12,"tenant":"acme"}`,
		`{"job":"alexnet-cifar10","budget_usd":150,"tenant":"globex"}`,
	}
	run := chaosRun{injected: make(map[chaos.Kind]int)}
	for _, body := range bodies {
		sub := submit(t, hts.URL, body)
		run.subs = append(run.subs, await(t, hts.URL, sub.ID))
		run.traces = append(run.traces, httpGetBody(t, hts.URL+"/v1/jobs/"+sub.ID+"/trace", http.StatusOK))
	}
	run.metrics = string(httpGetBody(t, hts.URL+"/metrics", http.StatusOK))
	for _, f := range plan.Faults {
		run.injected[f.Kind] = provider.Injected(f.Kind)
	}
	run.total = provider.TotalInjected()
	return run
}

// chaosPlanNames enumerates the builtin plans; the suite runs every one.
func chaosPlanNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, p := range chaos.Plans() {
		names = append(names, p.Name)
	}
	if len(names) == 0 {
		t.Fatal("no builtin chaos plans")
	}
	return names
}

// TestE2EChaosPlansSurvive drives both scenario jobs through every
// builtin fault plan: the plan must actually fire, both jobs must end
// done with their requirement satisfied — the scenario-2 job inside
// Tmax, the scenario-3 job inside Cmax — and the money story must
// reconcile across report, trace, and /metrics.
func TestE2EChaosPlansSurvive(t *testing.T) {
	for _, name := range chaosPlanNames(t) {
		t.Run(name, func(t *testing.T) {
			run := runChaosStack(t, name)
			if run.total == 0 {
				t.Fatalf("plan %s injected zero faults; the run exercised nothing", name)
			}

			var reportProfileUSD, lostUSD, lostHours float64
			var interruptions int
			for i, sub := range run.subs {
				if sub.Status != StatusDone || sub.Report == nil {
					t.Fatalf("job %d: status=%s err=%q", i, sub.Status, sub.Error)
				}
				if !sub.Report.Satisfied {
					t.Fatalf("job %d: requirement not satisfied under %s: %+v", i, name, sub.Report)
				}
				reportProfileUSD += sub.Report.ProfileUSD
				lostUSD += sub.Report.LostUSD
				lostHours += sub.Report.LostHours
				interruptions += sub.Report.Interruptions

				var tr obs.Trace
				if err := json.Unmarshal(run.traces[i], &tr); err != nil {
					t.Fatalf("job %d: trace does not parse: %v", i, err)
				}
				seq := 0
				var perProbeUSD, perEventLostUSD float64
				probes, spotEvents, resumeEvents := 0, 0, 0
				for _, e := range tr.Events {
					if e.Seq != seq+1 {
						t.Fatalf("job %d: event sequence gap at %+v", i, e)
					}
					seq = e.Seq
					switch e.Kind {
					case "probe":
						probes++
						perProbeUSD += e.ProfileUSD
					case "spot_interruption":
						spotEvents++
						perEventLostUSD += e.LostUSD
						if e.LostUSD <= 0 || e.LostHours <= 0 {
							t.Errorf("job %d: spot_interruption event lost nothing: %+v", i, e)
						}
					case "train_resumed":
						resumeEvents++
					}
				}
				// Probe ledger: every billed probe — including censored
				// failures — appears in the timeline, and the timeline sums
				// to the job's charged profiling bill.
				if probes != sub.Report.Probes {
					t.Errorf("job %d: trace has %d probe events, report counted %d", i, probes, sub.Report.Probes)
				}
				if !approx(perProbeUSD, sub.Report.ProfileUSD) {
					t.Errorf("job %d: probe events sum to $%.4f, report charged $%.4f", i, perProbeUSD, sub.Report.ProfileUSD)
				}
				// Interruption ledger: one trace event per interruption the
				// report counts, losses matching dollar for dollar, and at
				// least one resume for any interrupted run.
				if spotEvents != sub.Report.Interruptions {
					t.Errorf("job %d: %d spot_interruption events, report counted %d", i, spotEvents, sub.Report.Interruptions)
				}
				if !approx(perEventLostUSD, sub.Report.LostUSD) {
					t.Errorf("job %d: interruption events lose $%.4f, report lost $%.4f", i, perEventLostUSD, sub.Report.LostUSD)
				}
				if sub.Report.Interruptions > 0 && resumeEvents == 0 {
					t.Errorf("job %d: interrupted but never resumed", i)
				}
			}

			// The binding constraints hold despite the plan.
			if h := run.subs[0].Report.TotalHours; h > chaosDeadlineHours {
				t.Errorf("scenario-2 job took %.2fh, deadline %vh", h, chaosDeadlineHours)
			}
			if c := run.subs[1].Report.TotalUSD; c > chaosBudgetUSD {
				t.Errorf("scenario-3 job cost $%.2f, budget $%v", c, chaosBudgetUSD)
			}

			// Metrics ↔ reports.
			m := run.metrics
			if v := metricValue(t, m, "mlcd_profile_usd_total"); !approx(v, reportProfileUSD) {
				t.Errorf("mlcd_profile_usd_total = %v, reports charged %v", v, reportProfileUSD)
			}
			if v := metricValue(t, m, "mlcd_spot_interruptions_total"); v != float64(interruptions) {
				t.Errorf("mlcd_spot_interruptions_total = %v, reports counted %d", v, interruptions)
			}
			if v := metricValue(t, m, "mlcd_train_lost_usd_total"); !approx(v, lostUSD) {
				t.Errorf("mlcd_train_lost_usd_total = %v, reports lost $%v", v, lostUSD)
			}
			if v := metricValue(t, m, "mlcd_train_lost_hours_total"); !approx(v, lostHours) {
				t.Errorf("mlcd_train_lost_hours_total = %v, reports lost %vh", v, lostHours)
			}
			// Metrics ↔ chaos provider: every injection the wrapper counted
			// is on the shared exposition.
			for kind, n := range run.injected {
				sample := `mlcd_chaos_faults_total{kind="` + string(kind) + `"}`
				if v := metricValue(t, m, sample); v != float64(n) {
					t.Errorf("%s = %v, provider injected %d", sample, v, n)
				}
			}
		})
	}
}

// TestE2EChaosLaunchStormRetriesReconcile pins the launch-storm plan's
// specific story: every injected launch refusal surfaces as a transient
// launch attempt, and the retry counter kept pace.
func TestE2EChaosLaunchStormRetriesReconcile(t *testing.T) {
	run := runChaosStack(t, "launch-storm")
	storms := run.injected[chaos.KindLaunchError]
	if storms == 0 {
		t.Fatal("launch-storm injected nothing")
	}
	if v := metricValue(t, run.metrics, `mlcd_cluster_launches_total{result="transient"}`); v != float64(storms) {
		t.Errorf(`mlcd_cluster_launches_total{result="transient"} = %v, chaos injected %d`, v, storms)
	}
	// A storm can exhaust a whole launch (all four attempts transient, one
	// censored probe, no retry after the final attempt), so the retry
	// counter is bounded by the injections on both sides: at most one
	// retry per refusal, and only launches that gave up — each visible
	// as a failed probe — withhold one.
	retries := metricValue(t, run.metrics, "mlcd_cluster_launch_retries_total")
	censored := metricValue(t, run.metrics, `mlcd_profile_probes_total{result="failed"}`)
	if retries > float64(storms) {
		t.Errorf("mlcd_cluster_launch_retries_total = %v, want ≤ %d injections", retries, storms)
	}
	if retries < float64(storms)-censored {
		t.Errorf("mlcd_cluster_launch_retries_total = %v, want ≥ %d injections - %v censored probes",
			retries, storms, censored)
	}
}

// TestE2EChaosSpotResumeAccounting pins the acceptance story for spot
// interruptions: a training run is reclaimed mid-chunk, resumes from
// its last checkpoint on a relaunched cluster, and the final reported
// cost carries both the partially-billed lost work and the relaunch.
func TestE2EChaosSpotResumeAccounting(t *testing.T) {
	run := runChaosStack(t, "spot-interrupt")
	var interrupted *reportJSON
	for i, sub := range run.subs {
		if sub.Report == nil {
			t.Fatalf("job %d: no report (status=%s err=%q)", i, sub.Status, sub.Error)
		}
		if sub.Report.Interruptions > 0 && interrupted == nil {
			interrupted = sub.Report
		}
	}
	if interrupted == nil {
		t.Fatal("spot-interrupt plan interrupted no training run")
	}
	if interrupted.LostUSD <= 0 || interrupted.LostHours <= 0 {
		t.Fatalf("interrupted run lost nothing: %+v", interrupted)
	}
	// Lost work is billed *inside* the training figures, not on top:
	// the train bill must exceed what the finished work alone would
	// cost by at least the lost dollars.
	if interrupted.LostUSD >= interrupted.TrainUSD {
		t.Fatalf("lost $%.2f should be a strict part of the $%.2f train bill",
			interrupted.LostUSD, interrupted.TrainUSD)
	}
	if v := metricValue(t, run.metrics, "mlcd_train_resumes_total"); v == 0 {
		t.Error("mlcd_train_resumes_total = 0, want at least one resume")
	}
}

// TestE2EChaosDeterminism replays every plan under the same seeds: the
// fault injections, the recovery decisions, and every ledger they
// produce must be byte-identical across runs.
func TestE2EChaosDeterminism(t *testing.T) {
	for _, name := range chaosPlanNames(t) {
		t.Run(name, func(t *testing.T) {
			a := runChaosStack(t, name)
			b := runChaosStack(t, name)
			for i := range a.traces {
				if !bytes.Equal(a.traces[i], b.traces[i]) {
					t.Errorf("job %d: traces differ across identically-seeded chaos runs\nrun1:\n%s\nrun2:\n%s",
						i, a.traces[i], b.traces[i])
				}
			}
			if am, bm := stripWallClock(a.metrics), stripWallClock(b.metrics); am != bm {
				t.Errorf("metrics differ across identically-seeded chaos runs\nrun1:\n%s\nrun2:\n%s", am, bm)
			}
			if a.total != b.total {
				t.Errorf("injected %d faults in run1, %d in run2", a.total, b.total)
			}
		})
	}
}
