package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/core"
	"mlcd/internal/mlcdapi"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
	"mlcd/internal/workload"
)

// Daemon defaults (cmd/mlcdd): simulation seed, search workers per
// scheduler and queue bound. The benchmark's --seed only shapes the
// generated inputs; the program always runs with its own defaults.
const (
	daemonSeed    = 1
	daemonWorkers = 2
	daemonQueue   = 64
)

// daemonConfig is what a workload varies about the daemon it starts.
type daemonConfig struct {
	menu   map[string]workload.Job // nil → the default menu
	dir    string                  // segmented journal directory
	shards int                     // >= 2 runs the sharded plane
	queue  int                     // 0 → daemonQueue
	hold   bool                    // hold every search at its first probe
	tr     *tracer                 // nil → untraced
}

// daemon is one in-process instance of the daemon stack:
// mlcdsys.New → mlcdapi.NewServerWithConfig, driven through ServeHTTP.
type daemon struct {
	srv     *mlcdapi.Server
	gate    chan struct{} // closed to release held searches
	release sync.Once
}

func startDaemon(c daemonConfig) (*daemon, error) {
	reg := obs.NewRegistry()
	sc := mlcdsys.Config{Seed: daemonSeed, Metrics: reg, Provider: newCloud(max(1, c.shards))}
	if c.tr != nil {
		// The options mlcdsys.New gives its default searcher.
		sc.Searcher = c.tr.wrapSearcher(core.New(core.Options{Seed: daemonSeed, Metrics: reg}))
	}
	d := &daemon{}
	var mws []func(profiler.Profiler) profiler.Profiler
	if c.tr != nil {
		mws = append(mws, c.tr.wrapProfiler)
	}
	if c.hold {
		d.gate = make(chan struct{})
		mws = append(mws, func(inner profiler.Profiler) profiler.Profiler {
			return heldProfiler{gate: d.gate, inner: inner}
		})
	}
	cfg := mlcdapi.ServerConfig{
		Jobs:       c.menu,
		Workers:    daemonWorkers,
		QueueSize:  c.queue,
		Shards:     c.shards,
		JournalDir: c.dir,
		FleetPrior: true,
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = daemonQueue
	}
	if len(mws) > 0 {
		cfg.ProfilerMiddleware = func(p profiler.Profiler) profiler.Profiler {
			for _, mw := range mws {
				p = mw(p)
			}
			return p
		}
	}
	if c.tr != nil {
		cfg.FS = c.tr.fs
	}
	srv, err := mlcdapi.NewServerWithConfig(mlcdsys.New(sc), cfg)
	if err != nil {
		return nil, fmt.Errorf("starting daemon over %s: %w", c.dir, err)
	}
	d.srv = srv
	return d, nil
}

// newCloud is the simulated cloud account behind the daemon, as
// cmd/mlcdd builds it except for the quota: that is sized for every
// worker to hold a largest-possible cluster at once. At the default
// quota (equal to the largest cluster) one tenant's probe can be refused
// because another tenant's probe happens to hold nodes at that instant,
// which would make outcomes depend on thread timing.
func newCloud(schedulers int) cloud.Provider {
	n := schedulers * daemonWorkers
	q := cloud.Quota{MaxCPUNodes: n * cloud.DefaultLimits.MaxCPUNodes, MaxGPUNodes: n * cloud.DefaultLimits.MaxGPUNodes}
	return cloud.NewSimProvider(q, 2*time.Minute)
}

// call sends one request through the server's handler stack and times
// ServeHTTP alone.
func (d *daemon) call(method, target string, body []byte) (int, []byte, interval) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, r)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	d.srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), interval{t0, time.Now()}
}

// post submits one job; it returns the HTTP status, the parsed reply and
// when ServeHTTP ran.
func (d *daemon) post(s submission) (int, jobView, interval, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return 0, jobView{}, interval{}, err
	}
	code, resp, iv := d.call(http.MethodPost, "/v1/jobs", body)
	var v jobView
	if code == http.StatusAccepted {
		if err := json.Unmarshal(resp, &v); err != nil {
			return code, v, iv, fmt.Errorf("decoding POST reply: %w", err)
		}
	}
	return code, v, iv, nil
}

// get reads one job's status.
func (d *daemon) get(id string) (int, jobView, interval, error) {
	code, resp, iv := d.call(http.MethodGet, "/v1/jobs/"+id, nil)
	var v jobView
	if code == http.StatusOK {
		if err := json.Unmarshal(resp, &v); err != nil {
			return code, v, iv, fmt.Errorf("decoding GET reply: %w", err)
		}
	}
	return code, v, iv, nil
}

// scrape reads the program's own GET /metrics and sums every series of
// each family (and each histogram's _sum and _count) across labels.
func (d *daemon) scrape() map[string]float64 {
	_, body, _ := d.call(http.MethodGet, "/metrics", nil)
	return parseExposition(body)
}

// drain closes the daemon gracefully: every queued job still runs.
func (d *daemon) drain() { d.srv.Close() }

// kill stops the daemon the way a crash-restart drill does: running
// searches are aborted and queued jobs keep their journal claim. It
// returns once every worker has exited.
func (d *daemon) kill() {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	_ = d.srv.Shutdown(ctx) // the expired deadline always aborts; that is the point
	d.release.Do(func() {
		if d.gate != nil {
			close(d.gate)
		}
	})
	d.srv.Close() // waits for the aborted workers
}

// heldProfiler holds every measurement until the gate closes, so
// admitted jobs stay resident and the search engine does no work.
type heldProfiler struct {
	gate  <-chan struct{}
	inner profiler.Profiler
}

func (h heldProfiler) Profile(j workload.Job, d cloud.Deployment) profiler.Result {
	<-h.gate
	return h.inner.Profile(j, d)
}

// jobView is the part of the API's submission JSON the benchmark reads.
type jobView struct {
	ID     string      `json:"id"`
	Status string      `json:"status"`
	Error  string      `json:"error"`
	Report *reportView `json:"report"`
}

type reportView struct {
	Scenario     string  `json:"scenario"`
	Best         string  `json:"best_deployment"`
	Satisfied    bool    `json:"requirement_satisfied"`
	ProfileHours float64 `json:"profile_hours"`
	ProfileUSD   float64 `json:"profile_cost_usd"`
	TrainHours   float64 `json:"train_hours"`
	TrainUSD     float64 `json:"train_cost_usd"`
	TotalHours   float64 `json:"total_hours"`
	TotalUSD     float64 `json:"total_cost_usd"`
	Probes       int     `json:"probes"`
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "cancelled"
}

// ramDir creates a private directory for journals on a RAM-backed
// filesystem, so no metric times the shared disk. Without /dev/shm it
// falls back to the working directory and says so.
func ramDir() (string, error) {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		if d, err := os.MkdirTemp("/dev/shm", "ctrlbench-"); err == nil {
			return d, nil
		}
	}
	fmt.Fprintln(os.Stderr, "ctrlbench: no RAM-backed /dev/shm; journals go to the working directory's disk")
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(".bench_build", "journals-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(d)
}
