// Package mlcdapi turns the MLCD pipeline into a service — the "as a
// Service" in MLaaS. Clients submit a training job with their deadline
// or budget, poll its status while the deployment engine searches and
// the training run executes, and collect the final report:
//
//	POST   /v1/jobs          {"job","budget_usd"|"deadline_hours"[,"tenant"]} → {"id","status"}
//	GET    /v1/jobs[?status=] → submissions (optionally filtered by status)
//	GET    /v1/jobs/{id}      → status + report when done
//	DELETE /v1/jobs/{id}      → cancel a queued or running submission
//	GET    /v1/jobs/{id}/trace → the job's deterministic search timeline (JSON)
//	GET    /v1/stats          → queue depth, workers, jobs by status, cache savings
//	GET    /v1/health         → per-shard and plane-wide journal health (503 only when no shard can persist)
//	GET    /metrics           → Prometheus text exposition of every subsystem metric
//
// Lifecycle and execution live in the scheduler subsystem
// (internal/sched): submissions flow through a bounded queue (full →
// 429 with a Retry-After hint derived from queue depth) into a worker
// pool of concurrent searches that share one profiling cache, with an
// optional crash-safe journal. Status transitions are queued → running
// → done | failed | cancelled.
//
// With ServerConfig.Shards >= 2 the server runs the sharded control
// plane (internal/shardplane) instead of a single scheduler: tenants are
// routed across N independent shards by consistent hashing, each shard
// keeps its own segmented journal, and a merged cache snapshot shares
// measurements across all of them. The HTTP surface is identical either
// way.
package mlcdapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"mlcd/internal/fleetprior"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/obs"
	"mlcd/internal/sched"
	"mlcd/internal/shardplane"
	"mlcd/internal/workload"
)

// Status of a submission (the scheduler's).
type Status = sched.Status

// Submission lifecycle, re-exported for API callers.
const (
	StatusQueued    = sched.StatusQueued
	StatusRunning   = sched.StatusRunning
	StatusDone      = sched.StatusDone
	StatusFailed    = sched.StatusFailed
	StatusCancelled = sched.StatusCancelled
)

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Job           string  `json:"job"`
	Tenant        string  `json:"tenant,omitempty"`
	BudgetUSD     float64 `json:"budget_usd,omitempty"`
	DeadlineHours float64 `json:"deadline_hours,omitempty"`
}

// reportJSON is the wire form of a finished deployment.
type reportJSON struct {
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

	// Fault-recovery accounting: interruptions survived by the training
	// run and the billed-but-redone work they cost (already included in
	// the train/total figures above).
	Interruptions int     `json:"interruptions,omitempty"`
	LostHours     float64 `json:"lost_hours,omitempty"`
	LostUSD       float64 `json:"lost_cost_usd,omitempty"`
}

// submissionJSON is the wire form of one submission.
type submissionJSON struct {
	ID            string      `json:"id"`
	Job           string      `json:"job"`
	Tenant        string      `json:"tenant,omitempty"`
	Status        Status      `json:"status"`
	Error         string      `json:"error,omitempty"`
	CacheHits     int         `json:"cache_hits,omitempty"`
	CacheSavedUSD float64     `json:"cache_saved_usd,omitempty"`
	Report        *reportJSON `json:"report,omitempty"`
}

// errorJSON is the error envelope. RetryAfterSec mirrors the
// Retry-After header on 429 responses: an estimate of when the queue
// that rejected the submission will have drained one slot.
type errorJSON struct {
	Error         string `json:"error"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

// ServerConfig tunes the service around its backend: the sharded
// plane's Config, which also says what a single scheduler uses of it.
type ServerConfig = shardplane.Config

// degradedRetryAfterSec is the Retry-After hint on 503s caused by a
// degraded shard journal: long enough for a health-probe round to
// re-admit the shard, short enough that clients notice recovery fast.
const degradedRetryAfterSec = 5

// control is what the handlers need from whichever backend runs the
// jobs — the single scheduler or the sharded plane.
type control interface {
	Submit(name, tenant string, req mlcdsys.Requirements) (sched.Job, error)
	Get(id string) (sched.Job, bool)
	Cancel(id string) (sched.Job, error)
	List(filter sched.Status) []sched.Job
	Load(tenant string) (queued, capacity, workers int)
	statsJSON() any
	fleetPrior() *fleetprior.Prior
	Traces() *obs.Recorder
	Close()
	Shutdown(ctx context.Context) error
}

// schedControl adapts the single scheduler: one queue serves every
// tenant, so Load ignores the tenant.
type schedControl struct{ *sched.Scheduler }

func (c schedControl) Load(string) (queued, capacity, workers int) { return c.Scheduler.Load() }
func (c schedControl) statsJSON() any                              { return c.Scheduler.Stats() }
func (c schedControl) fleetPrior() *fleetprior.Prior               { return c.Scheduler.FleetPrior() }

// planeControl adapts the sharded plane.
type planeControl struct{ *shardplane.Plane }

func (c planeControl) statsJSON() any                { return c.Plane.Stats() }
func (c planeControl) fleetPrior() *fleetprior.Prior { return c.Plane.FleetPrior() }

// Server exposes an MLCD system as an HTTP service.
type Server struct {
	ctl     control
	sched   *sched.Scheduler // nil when sharded
	plane   *shardplane.Plane
	metrics *obs.Registry
	traces  *obs.Recorder
	mux     *http.ServeMux
}

// NewServer wraps an MLCD system with a single-worker scheduler. jobs is
// the submission menu (nil → every predefined workload, keyed by job
// name).
func NewServer(sys *mlcdsys.System, jobs map[string]workload.Job) *Server {
	s, err := NewServerWithConfig(sys, ServerConfig{Jobs: jobs})
	if err != nil {
		// Without a journal the scheduler cannot fail to construct.
		panic(err)
	}
	return s
}

// NewServerWithConfig wraps an MLCD system with a configured backend:
// a single scheduler (default), or the sharded control plane when
// cfg.Shards >= 2. A journal under cfg.JournalDir is replayed before
// the server accepts requests.
func NewServerWithConfig(sys *mlcdsys.System, cfg ServerConfig) (*Server, error) {
	s := &Server{metrics: sys.Metrics(), mux: http.NewServeMux()}
	if cfg.Shards >= 2 {
		p, err := shardplane.New(sys, cfg)
		if err != nil {
			return nil, err
		}
		s.plane, s.ctl = p, planeControl{p}
	} else {
		sc, err := sched.New(sys, sched.Config{
			Workers:            cfg.Workers,
			QueueSize:          cfg.QueueSize,
			Jobs:               cfg.Jobs,
			JournalDir:         cfg.JournalDir,
			ProfilerMiddleware: cfg.ProfilerMiddleware,
			FS:                 cfg.FS,
			FleetPrior:         cfg.FleetPrior,
		})
		if err != nil {
			return nil, err
		}
		s.sched, s.ctl = sc, schedControl{sc}
	}
	s.traces = s.ctl.Traces()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Scheduler exposes the underlying scheduler (stats, direct control).
// Nil when the server runs the sharded plane — use Plane then.
func (s *Server) Scheduler() *sched.Scheduler { return s.sched }

// Plane exposes the sharded control plane. Nil when the server runs a
// single scheduler — use Scheduler then.
func (s *Server) Plane() *shardplane.Plane { return s.plane }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the backend gracefully; queued submissions still run.
func (s *Server) Close() { s.ctl.Close() }

// Shutdown stops the backend with a deadline: running searches are
// aborted when ctx expires (journaled submissions are recovered on
// restart). Works for both the single scheduler and the sharded plane.
func (s *Server) Shutdown(ctx context.Context) error { return s.ctl.Shutdown(ctx) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func toJSON(j sched.Job) submissionJSON {
	out := submissionJSON{
		ID:            j.ID,
		Job:           j.Name,
		Tenant:        j.Tenant,
		Status:        j.Status,
		Error:         j.Err,
		CacheHits:     j.CacheHits,
		CacheSavedUSD: j.SavedUSD,
	}
	if j.Report != nil {
		rep := j.Report
		out.Report = &reportJSON{
			Scenario:     rep.Scenario.String(),
			Best:         rep.Outcome.Best.String(),
			Satisfied:    rep.Satisfied,
			ProfileHours: rep.Outcome.ProfileTime.Hours(),
			ProfileUSD:   rep.Outcome.ProfileCost,
			TrainHours:   rep.TrainTime.Hours(),
			TrainUSD:     rep.TrainCost,
			TotalHours:   rep.TotalTime.Hours(),
			TotalUSD:     rep.TotalCost,
			Probes:       len(rep.Outcome.Steps),

			Interruptions: rep.Interruptions,
			LostHours:     rep.LostTime.Hours(),
			LostUSD:       rep.LostCost,
		}
	}
	return out
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	// A misspelled key would otherwise drop its requirement silently and
	// run another scenario ("budget" instead of "budget_usd" runs an
	// unlimited search), so an unknown key is a 400 that names it.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "malformed body: " + err.Error()})
		return
	}
	if req.BudgetUSD < 0 || req.DeadlineHours < 0 {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "requirements must be non-negative"})
		return
	}
	// Past time.Duration's range (about 2.56 million hours) the
	// conversion wraps negative, which would silently drop the deadline.
	deadline := req.DeadlineHours * float64(time.Hour)
	if deadline >= math.MaxInt64 {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "deadline_hours out of range"})
		return
	}
	requirements := mlcdsys.Requirements{
		Budget:   req.BudgetUSD,
		Deadline: time.Duration(deadline),
	}
	job, err := s.ctl.Submit(req.Job, req.Tenant, requirements)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, toJSON(job))
	case errors.Is(err, sched.ErrQueueFull):
		queued, _, workers := s.ctl.Load(req.Tenant)
		retry := retryAfterSeconds(queued, workers)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: err.Error(), RetryAfterSec: retry})
	case errors.Is(err, shardplane.ErrShardDegraded), errors.Is(err, sched.ErrJournal):
		// The tenant's shard cannot persist the submission right now. The
		// failure is retryable — the shard re-admits itself once journal
		// writes succeed — so tell the client when to come back.
		w.Header().Set("Retry-After", strconv.Itoa(degradedRetryAfterSec))
		writeJSON(w, http.StatusServiceUnavailable,
			errorJSON{Error: err.Error(), RetryAfterSec: degradedRetryAfterSec})
	case errors.Is(err, sched.ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
	default:
		// Unknown job, a tenant name over sched.MaxTenantLen, or invalid
		// requirements.
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
	}
}

// retryAfterSeconds estimates when the rejecting queue will have room:
// one search slot frees per worker per drain cycle, so a full queue of
// depth q over w workers clears its head in roughly q/w "search times".
// Search time varies too much to measure here, so the estimate treats
// it as one second — deliberately optimistic, because the cost of an
// early retry is one cheap 429, while a pessimistic hint idles clients.
// Clamped to [1, 120] so the header is always a sane backoff.
func retryAfterSeconds(queued, workers int) int {
	if workers < 1 {
		workers = 1
	}
	secs := (queued + workers - 1) / workers
	if secs < 1 {
		secs = 1
	}
	if secs > 120 {
		secs = 120
	}
	return secs
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := Status(r.URL.Query().Get("status"))
	if filter != "" && !filter.Valid() {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("unknown status %q", filter)})
		return
	}
	jobs := s.ctl.List(filter)
	out := make([]submissionJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, toJSON(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.ctl.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: fmt.Sprintf("unknown submission %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, toJSON(job))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.ctl.Cancel(id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, toJSON(job))
	case errors.Is(err, sched.ErrNotFound):
		writeJSON(w, http.StatusNotFound, errorJSON{Error: fmt.Sprintf("unknown submission %q", id)})
	case errors.Is(err, sched.ErrFinished):
		writeJSON(w, http.StatusConflict, errorJSON{Error: fmt.Sprintf("submission %q already %s", id, job.Status)})
	default:
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ctl.statsJSON())
}

// fleetJSON is the GET /v1/fleet debug view: the provenance counters
// plus the full prior (its canonical wire form) when one is armed.
type fleetJSON struct {
	Enabled   bool              `json:"enabled"`
	Families  int               `json:"families"`
	Keys      int               `json:"keys"`
	DonorJobs int               `json:"donor_jobs"`
	Samples   int               `json:"samples"`
	Prior     *fleetprior.Prior `json:"prior,omitempty"`
}

// handleFleet reports the fleet meta-prior currently armed on searches.
// With the feature off (or nothing learned yet) it answers 200 with
// enabled=false / zero counters, never an error — the endpoint is a
// debugging window, not a health check.
func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	p := s.ctl.fleetPrior()
	st := p.Stats()
	out := fleetJSON{
		Enabled:   p != nil,
		Families:  st.Families,
		Keys:      st.Keys,
		DonorJobs: st.Jobs,
		Samples:   st.Samples,
	}
	if p.KeyCount() > 0 {
		out.Prior = p
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealth reports journal health. Sharded: the plane's per-shard
// picture; the endpoint itself answers 503 only when NO shard can
// persist, because a partially degraded plane still admits new tenants
// on its healthy shards — a load balancer that drained it on any
// degradation would turn a one-disk incident into a full outage.
// Single scheduler: one on-demand probe, reported as shard 0.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	var h shardplane.PlaneHealth
	if s.plane != nil {
		h = s.plane.Health()
	} else {
		sh := shardplane.ShardHealth{Shard: 0, State: "healthy"}
		h = shardplane.PlaneHealth{State: "healthy", Healthy: 1}
		if err := s.sched.ProbeJournal(); err != nil {
			sh.State, sh.LastError = "degraded", err.Error()
			h.State, h.Healthy, h.Degraded = "down", 0, 1
		}
		sh.ErrStreak = int(s.sched.JournalErrStreak())
		h.Shards = []shardplane.ShardHealth{sh}
	}
	code := http.StatusOK
	if h.State == "down" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.traces.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: fmt.Sprintf("no trace for submission %q", id)})
		return
	}
	b, err := obs.MarshalTrace(t)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}
