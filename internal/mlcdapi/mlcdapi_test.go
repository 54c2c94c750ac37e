package mlcdapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/profiler"
	"mlcd/internal/sched"
	"mlcd/internal/workload"
)

func newSystem(t *testing.T) *mlcdsys.System {
	t.Helper()
	cat, err := cloud.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return mlcdsys.New(mlcdsys.Config{
		Catalog: cat,
		Limits:  cloud.SpaceLimits{MaxCPUNodes: 40, MaxGPUNodes: 1},
		Seed:    1,
	})
}

func newService(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServerWithConfig(newSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv)
	t.Cleanup(func() {
		hts.Close()
		srv.Close()
	})
	return srv, hts
}

func submit(t *testing.T, base, body string) submissionJSON {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusAccepted {
		var e errorJSON
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit → %d (%s)", resp.StatusCode, e.Error)
	}
	var sub submissionJSON
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func await(t *testing.T, base, id string) submissionJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var sub submissionJSON
		err = json.NewDecoder(resp.Body).Decode(&sub)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sub.Status.Terminal() {
			return sub
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("submission %s never finished", id)
	return submissionJSON{}
}

func TestSubmitAndComplete(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	sub := submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":100}`)
	if sub.ID == "" || (sub.Status != StatusQueued && sub.Status != StatusRunning) {
		t.Fatalf("submission = %+v", sub)
	}
	done := await(t, hts.URL, sub.ID)
	if done.Status != StatusDone {
		t.Fatalf("status = %s (%s)", done.Status, done.Error)
	}
	rep := done.Report
	if rep == nil {
		t.Fatal("finished submission must carry a report")
	}
	if !rep.Satisfied || rep.TotalUSD > 100 {
		t.Fatalf("budget not honoured: %+v", rep)
	}
	if rep.Scenario != "scenario3-fastest-budget" || rep.Probes < 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSubmitDeadlineScenario(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	sub := submit(t, hts.URL, `{"job":"resnet-cifar10","deadline_hours":9}`)
	done := await(t, hts.URL, sub.ID)
	if done.Status != StatusDone {
		t.Fatalf("status = %s (%s)", done.Status, done.Error)
	}
	if done.Report.Scenario != "scenario2-cheapest-deadline" || done.Report.TotalHours > 9 {
		t.Fatalf("report = %+v", done.Report)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"job":"nope","budget_usd":10}`, http.StatusBadRequest},
		{`{"job":"resnet-cifar10","budget_usd":-1}`, http.StatusBadRequest},
		{`{"job":"resnet-cifar10","budget_usd":10,"deadline_hours":1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(c.body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s → %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

// TestSubmitUnknownFieldRefused: a misspelled key is a 400 naming it,
// not a submission that drops the requirement ("budget" for
// "budget_usd" would run an unlimited search).
func TestSubmitUnknownFieldRefused(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json",
		bytes.NewBufferString(`{"job":"resnet-cifar10","budget":100}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var e errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"budget"`) {
		t.Fatalf("misspelled key → %d %q, want 400 naming \"budget\"", resp.StatusCode, e.Error)
	}
}

// TestSubmitDeadlineOutOfRange: a deadline past time.Duration's range
// (about 2,562,047 h) is refused, alone or with a budget, instead of
// wrapping negative and running as another scenario. One just inside the
// range is still a deadline search.
func TestSubmitDeadlineOutOfRange(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	for _, body := range []string{
		`{"job":"resnet-cifar10","deadline_hours":3e6}`,
		`{"job":"resnet-cifar10","deadline_hours":3e6,"budget_usd":100}`,
	} {
		resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s → %d, want %d", body, resp.StatusCode, http.StatusBadRequest)
		}
	}
	sub := submit(t, hts.URL, `{"job":"resnet-cifar10","deadline_hours":2.5e6}`)
	done := await(t, hts.URL, sub.ID)
	if done.Status != StatusDone {
		t.Fatalf("status = %s (%s)", done.Status, done.Error)
	}
	if done.Report.Scenario != "scenario2-cheapest-deadline" {
		t.Fatalf("deadline 2.5e6 h ran as %s", done.Report.Scenario)
	}
}

func TestListAndGet(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	a := submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":100}`)
	b := submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":120}`)
	await(t, hts.URL, a.ID)
	await(t, hts.URL, b.ID)

	resp, err := http.Get(hts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var all []submissionJSON
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].ID >= all[1].ID {
		t.Fatalf("list = %+v", all)
	}

	resp404, err := http.Get(hts.URL + "/v1/jobs/job-9999")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id → %d", resp404.StatusCode)
	}
}

func TestStatusFilter(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	a := submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":100}`)
	await(t, hts.URL, a.ID)

	for filter, want := range map[string]int{"done": 1, "failed": 0, "cancelled": 0} {
		resp, err := http.Get(hts.URL + "/v1/jobs?status=" + filter)
		if err != nil {
			t.Fatal(err)
		}
		var got []submissionJSON
		err = json.NewDecoder(resp.Body).Decode(&got)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Errorf("?status=%s → %d submissions, want %d", filter, len(got), want)
		}
	}

	resp, err := http.Get(hts.URL + "/v1/jobs?status=bogus")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus status filter → %d", resp.StatusCode)
	}
}

func httpDelete(t *testing.T, url string) (*http.Response, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, func() { _ = resp.Body.Close() }
}

func TestCancel(t *testing.T) {
	// One worker wedged on a gate: the first submission occupies it, the
	// second stays queued and can be cancelled deterministically.
	gate := make(chan struct{})
	var once sync.Once
	_, hts := newService(t, ServerConfig{
		Workers: 1,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				<-gate
				return inner.Profile(j, d)
			})
		},
	})
	defer once.Do(func() { close(gate) })

	running := submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":100}`)
	queued := submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":100}`)

	resp, done := httpDelete(t, hts.URL+"/v1/jobs/"+queued.ID)
	var got submissionJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	done()
	if resp.StatusCode != http.StatusOK || got.Status != StatusCancelled {
		t.Fatalf("cancel queued → %d %+v", resp.StatusCode, got)
	}

	// Cancelling a terminal job conflicts.
	resp2, done2 := httpDelete(t, hts.URL+"/v1/jobs/"+queued.ID)
	done2()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("cancel cancelled → %d", resp2.StatusCode)
	}

	// Cancel the running job, then release the gate so its in-flight
	// probe returns and the search notices the dead context.
	resp3, done3 := httpDelete(t, hts.URL+"/v1/jobs/"+running.ID)
	done3()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("cancel running → %d", resp3.StatusCode)
	}
	once.Do(func() { close(gate) })
	if final := await(t, hts.URL, running.ID); final.Status != StatusCancelled {
		t.Fatalf("running job after cancel = %+v", final)
	}

	resp4, done4 := httpDelete(t, hts.URL+"/v1/jobs/job-9999")
	done4()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown → %d", resp4.StatusCode)
	}
}

// profilerFunc adapts a function to profiler.Profiler.
type profilerFunc func(workload.Job, cloud.Deployment) profiler.Result

func (f profilerFunc) Profile(j workload.Job, d cloud.Deployment) profiler.Result { return f(j, d) }

// TestConcurrentSubmissionsDedupe is the end-to-end multi-tenant story:
// goroutines submit identical and distinct jobs, every job terminates,
// and identical profiles are measured exactly once — the shared cache's
// singleflight collapses concurrent duplicates across workers, and the
// warm-start path spares later identical submissions entirely. A gate
// holds the first measurement until both identical jobs are mid-search,
// so the concurrent-duplicate window is exercised deterministically.
func TestConcurrentSubmissionsDedupe(t *testing.T) {
	var mu sync.Mutex
	measured := make(map[string]int)
	release := make(chan struct{})
	srv, hts := newService(t, ServerConfig{
		Workers: 2,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				<-release
				mu.Lock()
				measured[j.String()+"|"+d.Key()]++
				mu.Unlock()
				return inner.Profile(j, d)
			})
		},
	})

	// Two identical jobs from different tenants, submitted concurrently.
	first := []string{
		`{"job":"resnet-cifar10","budget_usd":100,"tenant":"acme"}`,
		`{"job":"resnet-cifar10","budget_usd":100,"tenant":"globex"}`,
	}
	ids := make([]string, len(first))
	var wg sync.WaitGroup
	for i, body := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = submit(t, hts.URL, body).ID
		}()
	}
	wg.Wait()

	// Both searches are now in flight (one leads the first probe, the
	// other waits on the same measurement); open the gate.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Scheduler().Stats().JobsByStatus[StatusRunning] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("both jobs never ran concurrently")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)

	// A third identical job (warm-started from the cache) and a distinct
	// workload ride behind them.
	ids = append(ids,
		submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":100,"tenant":"initech"}`).ID,
		submit(t, hts.URL, `{"job":"alexnet-cifar10","budget_usd":100,"tenant":"acme"}`).ID,
	)

	var totalHits int
	for _, id := range ids {
		sub := await(t, hts.URL, id)
		if sub.Status != StatusDone {
			t.Fatalf("%s: status = %s (%s)", id, sub.Status, sub.Error)
		}
		if sub.Report == nil || !sub.Report.Satisfied {
			t.Fatalf("%s: report = %+v", id, sub.Report)
		}
		totalHits += sub.CacheHits
	}

	mu.Lock()
	defer mu.Unlock()
	for key, n := range measured {
		if n != 1 {
			t.Errorf("profile %s measured %d times, want exactly 1", key, n)
		}
	}
	if totalHits == 0 {
		t.Error("identical concurrent submissions produced zero cache hits")
	}

	// The stats endpoint must agree that deduplication happened.
	resp, err := http.Get(hts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var stats sched.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits == 0 || stats.Cache.SavedUSD <= 0 {
		t.Fatalf("stats cache = %+v", stats.Cache)
	}
	if stats.JobsByStatus[StatusDone] != len(ids) {
		t.Fatalf("jobs by status = %+v", stats.JobsByStatus)
	}
	if stats.Workers != 2 {
		t.Fatalf("workers = %d", stats.Workers)
	}
}

func TestStatsEndpointShape(t *testing.T) {
	_, hts := newService(t, ServerConfig{Workers: 3})
	resp, err := http.Get(hts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"workers", "active_workers", "queue_depth", "jobs_by_status", "profile_cache"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("stats missing %q: %v", field, raw)
		}
	}
	if w, _ := raw["workers"].(float64); int(w) != 3 {
		t.Errorf("workers = %v", raw["workers"])
	}
}

func TestQueueFullReturns429(t *testing.T) {
	gate := make(chan struct{})
	srv, hts := newService(t, ServerConfig{
		Workers:   1,
		QueueSize: 1,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				<-gate
				return inner.Profile(j, d)
			})
		},
	})
	defer close(gate)

	running := submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":100}`)
	// Wait until the worker has dequeued the first job so the queue
	// capacity check below is deterministic.
	waitStatus(t, srv, running.ID, StatusRunning)
	_ = submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":100}`) // fills the queue

	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json",
		bytes.NewBufferString(`{"job":"resnet-cifar10","budget_usd":100}`))
	if err != nil {
		t.Fatal(err)
	}
	var e errorJSON
	err = json.NewDecoder(resp.Body).Decode(&e)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit → %d, want 429", resp.StatusCode)
	}
	// The rejection must tell the client when to come back: header for
	// standard backoff machinery, body field for humans reading the error.
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 120 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 120]", resp.Header.Get("Retry-After"))
	}
	if e.RetryAfterSec != ra {
		t.Fatalf("body retry_after_sec = %d, header = %d; must agree", e.RetryAfterSec, ra)
	}
	if e.Error == "" {
		t.Fatal("429 body lost its error message")
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct{ queued, workers, want int }{
		{0, 1, 1},      // empty queue still hints a minimal backoff
		{10, 1, 10},    // one worker drains one per cycle
		{10, 4, 3},     // ceil(10/4)
		{10, 0, 10},    // worker count is defensive-clamped to 1
		{9999, 2, 120}, // deep queues cap at 2 minutes
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.queued, c.workers); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %d, want %d", c.queued, c.workers, got, c.want)
		}
	}
}

func waitStatus(t *testing.T, srv *Server, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := srv.Scheduler().Get(id); ok && j.Status == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := srv.Scheduler().Get(id)
	t.Fatalf("job %s never reached %s (now %s)", id, want, j.Status)
}

func TestTenantRoundTrips(t *testing.T) {
	_, hts := newService(t, ServerConfig{})
	sub := submit(t, hts.URL, `{"job":"resnet-cifar10","budget_usd":100,"tenant":"acme"}`)
	if sub.Tenant != "acme" {
		t.Fatalf("tenant = %q", sub.Tenant)
	}
	done := await(t, hts.URL, sub.ID)
	if done.Tenant != "acme" {
		t.Fatalf("tenant after completion = %q", done.Tenant)
	}
}
