package mlcdapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlcd/internal/chaos"
	"mlcd/internal/cloud"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/obs"
)

// e2eRun captures everything one full pass through the service produced:
// the terminal submissions, their raw trace bodies, the /metrics text,
// and how many transient launch failures the chaos plan injected.
type e2eRun struct {
	subs     []submissionJSON
	traces   [][]byte
	metrics  string
	failures int
}

// runE2EStack boots the whole daemon stack — SimProvider behind a
// chaos plan that refuses launches, MLCD system, scheduler, HTTP
// server — and drives a scenario-2 job (cheapest under a deadline) and
// a scenario-3 job (fastest within a budget) to completion,
// sequentially on one worker so every layer behaves deterministically
// under the fixed seeds.
func runE2EStack(t *testing.T) e2eRun {
	t.Helper()
	cat, err := cloud.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	provider := chaos.Wrap(cloud.NewSimProvider(cloud.Quota{MaxCPUNodes: 40, MaxGPUNodes: 1}, 2*time.Minute), chaos.Plan{
		Name:   "launch-errors",
		Faults: []chaos.Fault{{Kind: chaos.KindLaunchError, Rate: 0.2}},
	}, 7, nil)
	sys := mlcdsys.New(mlcdsys.Config{
		Catalog:  cat,
		Limits:   cloud.SpaceLimits{MaxCPUNodes: 40, MaxGPUNodes: 1},
		Provider: provider,
		Seed:     1,
	})
	srv, err := NewServerWithConfig(sys, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv)
	defer hts.Close()
	defer srv.Close()

	bodies := []string{
		`{"job":"resnet-cifar10","deadline_hours":9,"tenant":"acme"}`,
		`{"job":"alexnet-cifar10","budget_usd":100,"tenant":"globex"}`,
	}
	run := e2eRun{}
	for _, body := range bodies {
		sub := submit(t, hts.URL, body)
		run.subs = append(run.subs, await(t, hts.URL, sub.ID))
		run.traces = append(run.traces, httpGetBody(t, hts.URL+"/v1/jobs/"+sub.ID+"/trace", http.StatusOK))
	}
	run.metrics = string(httpGetBody(t, hts.URL+"/metrics", http.StatusOK))
	run.failures = provider.Injected(chaos.KindLaunchError)
	return run
}

func httpGetBody(t *testing.T, url string, want int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("GET %s → %d, want %d (%s)", url, resp.StatusCode, want, b)
	}
	return b
}

// metricValue extracts one sample (series name plus rendered labels, as
// in `mlcd_sched_jobs_total{status="done"}`) from Prometheus text.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == sample {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("sample %s: bad value %q", sample, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric sample %q not found in exposition", sample)
	return 0
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestE2EObservability is the end-to-end reconciliation: the profiling
// dollars the jobs were charged in their reports, the per-probe ledger in
// their traces, and the /metrics counters must all tell the same story.
func TestE2EObservability(t *testing.T) {
	run := runE2EStack(t)

	wantScenario := []string{"scenario2-cheapest-deadline", "scenario3-fastest-budget"}
	var reportUSD, reportHours, traceUSD float64
	for i, sub := range run.subs {
		if sub.Status != StatusDone || sub.Report == nil {
			t.Fatalf("job %d: status=%s err=%q", i, sub.Status, sub.Error)
		}
		if !sub.Report.Satisfied {
			t.Fatalf("job %d: requirement not satisfied: %+v", i, sub.Report)
		}
		if sub.Report.Scenario != wantScenario[i] {
			t.Fatalf("job %d: scenario = %s, want %s", i, sub.Report.Scenario, wantScenario[i])
		}
		reportUSD += sub.Report.ProfileUSD
		reportHours += sub.Report.ProfileHours

		var tr obs.Trace
		if err := json.Unmarshal(run.traces[i], &tr); err != nil {
			t.Fatalf("job %d: trace does not parse: %v", i, err)
		}
		if tr.JobID != sub.ID || tr.Scenario != wantScenario[i] {
			t.Fatalf("job %d: trace header = %+v", i, tr)
		}
		if len(tr.Events) == 0 || tr.Events[0].Kind != "submitted" {
			t.Fatalf("job %d: trace must open with a submitted event, got %+v", i, tr.Events)
		}
		last := tr.Events[len(tr.Events)-1]
		if last.Kind != "done" {
			t.Fatalf("job %d: trace must close with a done event, got %q", i, last.Kind)
		}
		if !approx(last.CumProfileUSD, sub.Report.ProfileUSD) || !approx(last.TrainUSD, sub.Report.TrainUSD) {
			t.Fatalf("job %d: done event %+v disagrees with report %+v", i, last, sub.Report)
		}
		var probes int
		var perProbeUSD float64
		seq := 0
		for _, e := range tr.Events {
			if e.Seq != seq+1 {
				t.Fatalf("job %d: event sequence gap at %+v", i, e)
			}
			seq = e.Seq
			if e.Kind == "probe" {
				probes++
				perProbeUSD += e.ProfileUSD
			}
		}
		if probes != sub.Report.Probes {
			t.Errorf("job %d: trace has %d probe events, report counted %d", i, probes, sub.Report.Probes)
		}
		// The per-event ledger must sum to the job's charged profiling
		// bill — no probe is billed without appearing in the timeline.
		if !approx(perProbeUSD, sub.Report.ProfileUSD) {
			t.Errorf("job %d: probe events sum to $%.4f, report charged $%.4f", i, perProbeUSD, sub.Report.ProfileUSD)
		}
		traceUSD += perProbeUSD
	}

	// Metrics ↔ reports: distinct workloads mean no cache hits, so the
	// measured-probe counters must equal the sum of the jobs' bills.
	m := run.metrics
	if v := metricValue(t, m, "mlcd_profile_usd_total"); !approx(v, reportUSD) {
		t.Errorf("mlcd_profile_usd_total = %v, reports charged %v", v, reportUSD)
	}
	if v := metricValue(t, m, "mlcd_profile_hours_total"); !approx(v, reportHours) {
		t.Errorf("mlcd_profile_hours_total = %v, reports spent %v hours", v, reportHours)
	}
	if !approx(traceUSD, reportUSD) {
		t.Errorf("trace ledger sums to $%.4f, reports charged $%.4f", traceUSD, reportUSD)
	}
	if v := metricValue(t, m, "mlcd_sched_submissions_total"); v != 2 {
		t.Errorf("mlcd_sched_submissions_total = %v, want 2", v)
	}
	if v := metricValue(t, m, `mlcd_sched_jobs_total{status="done"}`); v != 2 {
		t.Errorf(`mlcd_sched_jobs_total{status="done"} = %v, want 2`, v)
	}
	if v := metricValue(t, m, "mlcd_search_runs_total"); v != 2 {
		t.Errorf("mlcd_search_runs_total = %v, want 2", v)
	}
	if v := metricValue(t, m, "mlcd_train_runs_total"); v != 2 {
		t.Errorf("mlcd_train_runs_total = %v, want 2", v)
	}
	if v := metricValue(t, m, "mlcd_sched_cache_hits_total"); v != 0 {
		t.Errorf("mlcd_sched_cache_hits_total = %v, want 0 for distinct workloads", v)
	}

	// Metrics ↔ provider: every injected transient failure must be
	// visible as a failed launch attempt.
	if run.failures == 0 {
		t.Fatal("failure injection produced zero transient failures; raise the rate or change the seed")
	}
	if v := metricValue(t, m, `mlcd_cluster_launches_total{result="transient"}`); v != float64(run.failures) {
		t.Errorf(`mlcd_cluster_launches_total{result="transient"} = %v, provider injected %d`, v, run.failures)
	}
	if v := metricValue(t, m, "mlcd_cluster_launch_retries_total"); v < float64(run.failures) {
		t.Errorf("mlcd_cluster_launch_retries_total = %v, want ≥ %d", v, run.failures)
	}
}

// wallClockFamilies are the only metric families whose samples carry real
// elapsed time (see obs.Perf); every other series derives from the
// virtual clock and must reproduce exactly under a fixed seed.
var wallClockFamilies = []string{"gp_refactor_seconds", "search_score_seconds"}

// stripWallClock removes the wall-clock performance families from a
// Prometheus exposition so the rest can be compared byte for byte.
func stripWallClock(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		probe := line
		if rest, ok := strings.CutPrefix(probe, "# HELP "); ok {
			probe = rest
		} else if rest, ok := strings.CutPrefix(probe, "# TYPE "); ok {
			probe = rest
		}
		skip := false
		for _, fam := range wallClockFamilies {
			if strings.HasPrefix(probe, fam) {
				skip = true
				break
			}
		}
		if !skip {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestE2EDeterminism runs the identical seeded stack twice: the trace
// endpoint must return byte-identical timelines and /metrics must agree
// sample for sample — the observability layer introduces no wall-clock
// or map-order nondeterminism of its own. The only exception is the
// explicitly wall-clock perf histograms, which are stripped before the
// comparison (and asserted deterministic in count, not duration).
func TestE2EDeterminism(t *testing.T) {
	a := runE2EStack(t)
	b := runE2EStack(t)
	for i := range a.traces {
		if !bytes.Equal(a.traces[i], b.traces[i]) {
			t.Errorf("job %d: traces differ across identically-seeded runs\nrun1:\n%s\nrun2:\n%s",
				i, a.traces[i], b.traces[i])
		}
	}
	if am, bm := stripWallClock(a.metrics), stripWallClock(b.metrics); am != bm {
		t.Errorf("metrics exposition differs across identically-seeded runs\nrun1:\n%s\nrun2:\n%s", am, bm)
	}
	// The perf histograms sample real time, but *how many* refits and
	// scoring sweeps ran is a seeded decision and must agree.
	for _, fam := range wallClockFamilies {
		av := metricValue(t, a.metrics, fam+"_count")
		bv := metricValue(t, b.metrics, fam+"_count")
		if av != bv || av == 0 {
			t.Errorf("%s_count = %v vs %v across identically-seeded runs (want equal and nonzero)", fam, av, bv)
		}
	}
}

// TestE2ESerialParallelTraces pins the guarantee that the bounded-
// parallel hyperparameter multi-start may change how fast the search
// runs, never what it decides. A run confined to one scheduler thread
// (GOMAXPROCS=1, which also defaults the search core's worker pool to 1)
// must produce byte-identical job traces to a fully parallel run of the
// same seeded stack.
func TestE2ESerialParallelTraces(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	serial := runE2EStack(t)
	runtime.GOMAXPROCS(prev)
	parallel := runE2EStack(t)
	for i := range serial.traces {
		if !bytes.Equal(serial.traces[i], parallel.traces[i]) {
			t.Errorf("job %d: serial and parallel traces differ\nserial:\n%s\nparallel:\n%s",
				i, serial.traces[i], parallel.traces[i])
		}
	}
	if am, bm := stripWallClock(serial.metrics), stripWallClock(parallel.metrics); am != bm {
		t.Errorf("serial and parallel metrics differ\nserial:\n%s\nparallel:\n%s", am, bm)
	}
}

// TestTraceEndpointErrors pins the endpoint's failure behaviour.
func TestTraceEndpointErrors(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	_ = httpGetBody(t, hts.URL+"/v1/jobs/job-9999/trace", http.StatusNotFound)
}

// TestMetricsContentType pins the Prometheus text content type.
func TestMetricsContentType(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}
