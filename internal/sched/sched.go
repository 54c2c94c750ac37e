// Package sched is MLCD's multi-tenant job scheduler: the subsystem that
// turns the single-job deployment pipeline (internal/mlcdsys) into a
// service that survives heavy traffic and restarts. It contributes four
// pieces:
//
//   - a bounded FIFO queue with admission control — submissions beyond
//     the queue's capacity are rejected immediately (the API layer maps
//     that to 429) instead of piling up unbounded;
//   - a worker pool running up to Workers HeterBO searches concurrently,
//     each under a cancellable context so a job can be aborted while
//     queued or mid-search;
//   - a shared ProfileCache keyed by (job, instance type, nodes) with
//     singleflight deduplication: the paper's insight is that profiling
//     cost is the scarce resource, so identical probes from different
//     tenants are paid for exactly once and later submissions of the
//     same workload warm-start from prior measurements;
//   - a crash-safe SegmentedJournal: every submission, completed probe,
//     and terminal status is fsynced to an append-only log, and a
//     restarted scheduler re-enqueues unfinished jobs with their
//     observations already in the cache — recovered searches do not
//     re-profile.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/faultfs"
	"mlcd/internal/fleetprior"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

// Status of a submission in the scheduler.
type Status string

// Submission lifecycle: queued → running → done | failed | cancelled.
// A job cancelled while queued skips running entirely.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Valid reports whether s is a known status value (for API filtering).
func (s Status) Valid() bool {
	switch s {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
		return true
	}
	return false
}

// MaxTenantLen bounds a submission's tenant name, in bytes. The name is
// journaled with every submission, and a journal line must stay within
// what replay reads (maxRecordLine).
const MaxTenantLen = 256

// Scheduler errors.
var (
	ErrQueueFull    = errors.New("sched: submission queue full")
	ErrShuttingDown = errors.New("sched: scheduler is shutting down")
	ErrUnknownJob   = errors.New("sched: unknown job")
	ErrNotFound     = errors.New("sched: no such submission")
	ErrFinished     = errors.New("sched: submission already finished")
	// ErrTenantTooLong refuses a tenant name over MaxTenantLen bytes.
	ErrTenantTooLong = errors.New("sched: tenant name too long")
	// ErrJournal wraps every failed journal append: the triggering
	// operation was refused because its record could not be made durable.
	// The shard plane maps it to 503 and counts it toward shard health.
	ErrJournal = errors.New("sched: journal write failed")
)

// Config assembles a Scheduler.
type Config struct {
	// Workers is the number of concurrent deployment searches (default 1).
	Workers int
	// QueueSize bounds how many submissions may wait (default 64).
	// Submissions beyond it are rejected with ErrQueueFull.
	QueueSize int
	// Jobs is the submission menu (nil → every predefined workload, as
	// DefaultMenu).
	Jobs map[string]workload.Job
	// JournalDir enables the crash-safe journal ("" → none): rotating
	// segment files under this directory, compacted into a snapshot
	// every minute, so recovery cost stays O(live jobs) as history
	// grows. An existing journal is replayed first: unfinished
	// submissions are re-enqueued and journaled probes prime the cache.
	JournalDir string
	// IDPrefix prefixes generated job IDs ("" → "job", yielding
	// "job-0001"). The shard plane gives each shard its own prefix
	// ("s2-job") so IDs stay unique — and routable — across shards.
	IDPrefix string
	// ShardLabel, when non-empty, adds a {shard="..."} label to every
	// scheduler metric so per-shard series stay distinguishable on one
	// shared registry.
	ShardLabel string
	// Cache is the shared profiling cache (nil → a fresh one). Passing
	// one in lets several schedulers — or tests — share measurements; at
	// most one of them may set FleetPrior, since that scheduler's prior
	// rebuild consumes the cache's log of stored entries.
	Cache *ProfileCache
	// ProfilerMiddleware, when non-nil, wraps the measuring profiler
	// *inside* the cache: it sees only real measurements, never cache
	// hits. Used for instrumentation and tests.
	ProfilerMiddleware func(profiler.Profiler) profiler.Profiler
	// Traces is the per-job timeline recorder (nil → a fresh one with
	// the default retention). The API layer serves its timelines at
	// /v1/jobs/{id}/trace.
	Traces *obs.Recorder
	// FS is the storage under the journal (nil → the real filesystem).
	// Tests inject storage faults and simulated crashes through it.
	FS faultfs.FS
	// FleetPrior makes this scheduler learn its own fleet meta-prior:
	// cross-job transfer curves rebuilt from its profile cache (seeded by
	// journal replay) after recovery and after every search that ends
	// done or failed. Only a lone scheduler sets it. A shard never
	// rebuilds its own prior: the shard plane runs its shards with this
	// off and publishes the prior its merge derives from every shard's
	// cache through SetFleetPrior. Off by default: with no prior learned
	// or installed every search is bit-identical to a scheduler without
	// the feature.
	FleetPrior bool
}

// Job is a caller-visible snapshot of one submission.
type Job struct {
	ID           string
	Name         string // menu key the job was submitted under
	Tenant       string
	Workload     workload.Job
	Requirements mlcdsys.Requirements
	Status       Status
	Err          string
	Report       *mlcdsys.Report // non-nil once done
	CacheHits    int             // probes answered from the shared cache
	SavedUSD     float64         // profiling dollars those hits spared
}

// job is the internal, mutable record. All fields are guarded by
// Scheduler.mu except the immutable identity fields.
type job struct {
	id       string
	name     string
	tenant   string
	workload workload.Job
	req      mlcdsys.Requirements

	status        Status
	err           string
	report        *mlcdsys.Report
	cacheHits     int
	savedUSD      float64
	cancel        context.CancelFunc // non-nil while running
	userCancelled bool               // Cancel() was called (vs shutdown abort)
	trace         *obs.JobTrace      // nil-safe per-job timeline sink
}

// Scheduler runs submissions through a worker pool over one MLCD system.
type Scheduler struct {
	sys      *mlcdsys.System
	menu     map[string]workload.Job
	cache    *ProfileCache
	journal  *SegmentedJournal // nil when journaling is off
	workers  int
	idPrefix string
	mw       func(profiler.Profiler) profiler.Profiler
	traces   *obs.Recorder
	m        schedMetrics

	queue chan *job
	wg    sync.WaitGroup

	// journalErrStreak counts consecutive failed journal appends; any
	// success resets it. Atomic because probe appends happen outside
	// s.mu. The shard plane reads it to detect a dying disk.
	journalErrStreak atomic.Int64

	// fold is this scheduler's own prior rebuild, nil unless
	// Config.FleetPrior is set: the profile cache's entries folded in as
	// they are stored, guarded by mu; resolve attributes them. fleet
	// holds the current prior (nil until one is learned or installed).
	// Atomic so the plane's merge loop can publish a fleet-wide prior
	// while workers arm searches with it.
	fold    *fleetprior.Fold
	resolve fleetprior.Resolver
	fleet   atomic.Pointer[fleetprior.Prior]

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	tenants  map[string]bool // every tenant that has ever submitted here
	nextID   int
	active   int  // workers currently running a search
	started  bool // Start spawned the workers
	closed   bool // no more submissions; queue channel closed
	stopping bool // workers must not start queued jobs (hard shutdown)
}

// schedMetrics holds the scheduler's metric handles, resolved once
// against the system's shared registry. When several shards share one
// registry each resolves its own label set via the shard label, so
// per-shard series stay distinguishable (and sum to the fleet totals).
type schedMetrics struct {
	reg   *obs.Registry // for label-parameterized families
	shard string        // "" outside the shard plane

	submissions     *obs.Counter
	queueDepth      *obs.Gauge
	workers         *obs.Gauge
	activeWorkers   *obs.Gauge
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	cacheSavedUSD   *obs.Counter
	journalAppends  *obs.Counter
	journalErrors   *obs.Counter
	journalSeconds  *obs.Histogram
	journalRotates  *obs.Counter
	journalCompacts *obs.Counter
	compactSeconds  *obs.Histogram
	fleetPriorKeys  *obs.Gauge
	fleetArmed      *obs.Counter
	fleetRebuild    *obs.Histogram
}

// shardLabels renders the label set metrics of one shard carry: empty
// outside the shard plane, {shard="N"} inside it.
func shardLabels(shard string, extra ...obs.L) []obs.L {
	if shard == "" {
		return extra
	}
	return append([]obs.L{{Key: "shard", Value: shard}}, extra...)
}

func registerSchedMetrics(reg *obs.Registry, shard string) schedMetrics {
	ls := shardLabels(shard)
	return schedMetrics{
		reg:   reg,
		shard: shard,
		submissions: reg.Counter("mlcd_sched_submissions_total",
			"Submissions admitted to the queue.", ls...),
		queueDepth: reg.Gauge("mlcd_sched_queue_depth",
			"Submissions currently waiting in the queue.", ls...),
		workers: reg.Gauge("mlcd_sched_workers",
			"Size of the search worker pool.", ls...),
		activeWorkers: reg.Gauge("mlcd_sched_active_workers",
			"Workers currently running a deployment search.", ls...),
		cacheHits: reg.Counter("mlcd_sched_cache_hits_total",
			"Probes answered from the shared profiling cache.", ls...),
		cacheMisses: reg.Counter("mlcd_sched_cache_misses_total",
			"Probes that had to be measured for real.", ls...),
		cacheSavedUSD: reg.Counter("mlcd_sched_cache_saved_usd_total",
			"Profiling dollars spared by cache hits.", ls...),
		journalAppends: reg.Counter("mlcd_sched_journal_appends_total",
			"Records appended (and fsynced) to the crash journal.", ls...),
		journalErrors: reg.Counter("mlcd_sched_journal_append_errors_total",
			"Journal appends that failed (write, flush, or fsync error); the triggering operation was refused, never silently acked.", ls...),
		journalSeconds: reg.Histogram("mlcd_sched_journal_append_seconds",
			"Wall-clock latency of one journal append+fsync.", nil, ls...),
		journalRotates: reg.Counter("mlcd_sched_journal_rotations_total",
			"Journal segments sealed by rotation.", ls...),
		journalCompacts: reg.Counter("mlcd_sched_journal_compactions_total",
			"Journal compactions folding sealed segments into the snapshot.", ls...),
		compactSeconds: reg.Histogram("mlcd_sched_journal_compact_seconds",
			"Wall-clock latency of one journal compaction.", nil, ls...),
		fleetPriorKeys: reg.Gauge("mlcd_sched_fleet_prior_keys",
			"(family, instance type) transfer curves in the current fleet meta-prior.", ls...),
		fleetArmed: reg.Counter("mlcd_sched_fleet_prior_armed_total",
			"Searches started with a fleet meta-prior on the surrogate.", ls...),
		fleetRebuild: reg.Histogram("mlcd_sched_fleet_prior_rebuild_seconds",
			"Wall-clock latency of one fleet-prior rebuild: folding the cache's new entries in and publishing.", nil, ls...),
	}
}

// rejection counts one refused submission by reason.
func (m *schedMetrics) rejection(reason string) {
	m.reg.Counter("mlcd_sched_rejections_total",
		"Submissions refused, by reason.",
		shardLabels(m.shard, obs.L{Key: "reason", Value: reason})...).Inc()
}

// terminal counts one job reaching a final status.
func (m *schedMetrics) terminal(st Status) {
	m.reg.Counter("mlcd_sched_jobs_total",
		"Jobs reaching a terminal status.",
		shardLabels(m.shard, obs.L{Key: "status", Value: string(st)})...).Inc()
}

// DefaultMenu returns the standard submission menu: every predefined
// workload keyed by name (platform-suffixed on collision).
func DefaultMenu() map[string]workload.Job {
	jobs := make(map[string]workload.Job)
	for _, j := range workload.All() {
		key := j.Name
		if _, dup := jobs[key]; dup {
			key = fmt.Sprintf("%s-%s", j.Name, j.Platform)
		}
		jobs[key] = j
	}
	return jobs
}

// New is Recover followed by Start: a scheduler whose workers are
// already draining the jobs recovered from the journal, ahead of any new
// submission.
func New(sys *mlcdsys.System, cfg Config) (*Scheduler, error) {
	s, err := Recover(sys, cfg)
	if err != nil {
		return nil, err
	}
	s.Start()
	return s, nil
}

// Recover builds a scheduler over sys without starting it. With a
// journal configured it opens it, in the one pass that also replays it,
// and folds the replay in (journaled probes prime the cache; unfinished
// jobs are enqueued ahead of any new submission; jobs whose menu entry
// vanished are journaled failed); the journal then compacts itself every
// minute. With Config.FleetPrior set it rebuilds the fleet prior from
// the primed cache. No worker runs until Start, so a
// caller assembling several schedulers — the shard plane — can publish
// shared state before any recovered search begins, or Close them all
// with every recovered job still owed in its journal.
func Recover(sys *mlcdsys.System, cfg Config) (*Scheduler, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Jobs == nil {
		cfg.Jobs = DefaultMenu()
	}
	if cfg.Cache == nil {
		cfg.Cache = NewProfileCache()
	}
	if cfg.Traces == nil {
		cfg.Traces = obs.NewRecorder(0)
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "job"
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	s := &Scheduler{
		sys:      sys,
		menu:     cfg.Jobs,
		cache:    cfg.Cache,
		workers:  cfg.Workers,
		idPrefix: cfg.IDPrefix,
		mw:       cfg.ProfilerMiddleware,
		traces:   cfg.Traces,
		m:        registerSchedMetrics(sys.Metrics(), cfg.ShardLabel),
		jobs:     make(map[string]*job),
		tenants:  make(map[string]bool),
	}
	s.m.workers.Set(float64(cfg.Workers))

	var recovered []*job
	if cfg.JournalDir != "" {
		jl, state, err := OpenSegmented(SegmentedConfig{
			Dir:          cfg.JournalDir,
			CompactEvery: compactEvery,
			FS:           cfg.FS,
			OnRotate:     s.m.journalRotates.Inc,
			OnCompact: func(d time.Duration) {
				s.m.journalCompacts.Inc()
				s.m.compactSeconds.Observe(d.Seconds())
			},
		})
		if err != nil {
			return nil, err
		}
		// Open before absorb: the failed records absorb writes for jobs
		// that left the menu must reach the journal, or they come back
		// live on the next restart.
		s.journal = jl
		recovered = s.absorb(state)
	}

	if cfg.FleetPrior {
		// The fold starts from every entry the cache holds — replayed
		// probes included — and from here on drains what it stores. The
		// first rebuild runs now, so the first search after a restart
		// starts fleet-warm.
		jobs := make([]workload.Job, 0, len(s.menu))
		for _, j := range s.menu {
			jobs = append(jobs, j)
		}
		s.resolve = fleetprior.MenuResolver(jobs)
		fold := fleetprior.NewFold(s.resolve)
		start := time.Now()
		if !s.cache.startFold(fold) {
			if s.journal != nil {
				_ = s.journal.Close()
			}
			return nil, errors.New("sched: Config.Cache already feeds another scheduler's fleet prior")
		}
		s.fold = fold
		s.publishFleetPrior(start)
	}

	size := cfg.QueueSize
	if len(recovered) > size {
		size = len(recovered)
	}
	s.queue = make(chan *job, size)
	for _, rec := range recovered {
		s.queue <- rec
	}
	return s, nil
}

// Start spawns the worker pool; until then recovered jobs and new
// submissions wait in the queue. Only the first call on an open
// scheduler does anything: one closed before it started never runs its
// queue.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	s.wg.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
}

// absorb folds a replayed journal into the scheduler state, returning
// the jobs that must be re-enqueued. Probes prime the shared cache so
// those deployments are never re-measured. A job whose menu entry
// vanished is failed and journaled, so s.journal must already be open.
func (s *Scheduler) absorb(state JournalState) []*job {
	for _, p := range state.Probes {
		w, ok := s.menu[p.Job]
		if !ok {
			continue // menu changed across restarts; drop the orphan
		}
		obs, err := search.DecodeObservation(p.Observation, s.sys.Catalog())
		if err != nil {
			continue // catalog changed; the measurement no longer resolves
		}
		s.cache.Prime(w, profiler.Result{
			Deployment: obs.Deployment,
			Throughput: obs.Throughput,
			Duration:   time.Duration(p.DurationSec * float64(time.Second)),
			Cost:       p.CostUSD,
		})
	}
	s.nextID = state.MaxID
	var pending []*job
	for _, sub := range state.Subs {
		rec := &job{
			id:     sub.ID,
			name:   sub.Job,
			tenant: sub.Tenant,
			req: mlcdsys.Requirements{
				Budget:   sub.BudgetUSD,
				Deadline: time.Duration(sub.DeadlineHours * float64(time.Hour)),
			},
			status: sub.Status,
			err:    sub.Error,
		}
		s.tenants[sub.Tenant] = true
		w, known := s.menu[sub.Job]
		rec.workload = w
		switch {
		case sub.Status.Terminal():
			// Finished before the restart: keep it visible. The report
			// itself is not journaled, only the outcome status.
		case !known:
			rec.status = StatusFailed
			rec.err = fmt.Sprintf("job %q no longer in the menu after restart", sub.Job)
			s.journalDone(rec)
		default:
			rec.status = StatusQueued
			rec.trace = s.traces.Start(rec.id, rec.name, rec.tenant, scenarioName(rec.req))
			rec.trace.Emit(obs.Event{Kind: "recovered", Note: "re-enqueued from journal; cached probes warm-start the search"})
			pending = append(pending, rec)
		}
		s.jobs[rec.id] = rec
		s.order = append(s.order, rec.id)
	}
	return pending
}

// Cache returns the shared profiling cache.
func (s *Scheduler) Cache() *ProfileCache { return s.cache }

// Traces returns the per-job timeline recorder.
func (s *Scheduler) Traces() *obs.Recorder { return s.traces }

// FleetPrior returns the meta-prior searches are currently armed with
// (nil until one is learned or installed).
func (s *Scheduler) FleetPrior() *fleetprior.Prior {
	return s.fleet.Load()
}

// SetFleetPrior installs a prior built elsewhere — the shard plane's
// merge loop publishes the fleet-wide prior to every shard through it.
// Installing nil disarms.
func (s *Scheduler) SetFleetPrior(p *fleetprior.Prior) {
	s.fleet.Store(p)
	s.m.fleetPriorKeys.Set(float64(p.KeyCount()))
}

// RebuildFleetPrior relearns the meta-prior from this scheduler's own
// profile cache (full-fidelity successes only) and installs it. Called
// at startup after journal replay and after each search that ends done
// or failed. A no-op unless Config.FleetPrior is set, so a shard never
// replaces the prior its plane published.
func (s *Scheduler) RebuildFleetPrior() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebuildFleetPriorLocked()
}

// rebuildFleetPriorLocked folds the entries the cache stored since the
// last rebuild into the fold and publishes its prior: byte for byte
// fleetprior.BuildFromCache over the cache's Export at this instant,
// with only the families those entries touch rebuilt (all of them after
// the rare replaced entry, which refolds the cache). The wall-clock cost
// lands on /metrics. Callers hold s.mu.
func (s *Scheduler) rebuildFleetPriorLocked() {
	if s.fold == nil {
		return
	}
	start := time.Now()
	if !s.cache.foldStored(s.fold) {
		s.fold = fleetprior.NewFold(s.resolve)
		s.cache.refold(s.fold)
	}
	s.publishFleetPrior(start)
}

// publishFleetPrior installs the fold's prior and times the rebuild that
// began at start. Callers hold s.mu, or own s alone (Recover).
func (s *Scheduler) publishFleetPrior(start time.Time) {
	s.SetFleetPrior(s.fold.Prior())
	s.m.fleetRebuild.Observe(time.Since(start).Seconds())
}

// scenarioName renders the scenario a requirement set maps to ("" when
// the requirements are invalid).
func scenarioName(req mlcdsys.Requirements) string {
	scen, _, err := mlcdsys.AnalyzeScenario(req)
	if err != nil {
		return ""
	}
	return scen.String()
}

// constraintNote renders the user's requirement for the trace ledger.
func constraintNote(req mlcdsys.Requirements) string {
	switch {
	case req.Deadline > 0:
		return fmt.Sprintf("deadline %s", req.Deadline)
	case req.Budget > 0:
		return fmt.Sprintf("budget $%.2f", req.Budget)
	default:
		return "unconstrained"
	}
}

// Submit validates, admits, journals, and enqueues one submission.
// It returns ErrUnknownJob, ErrTenantTooLong, ErrShuttingDown, or
// ErrQueueFull without enqueuing anything.
func (s *Scheduler) Submit(name, tenant string, req mlcdsys.Requirements) (Job, error) {
	w, ok := s.menu[name]
	if !ok {
		s.m.rejection("unknown_job")
		return Job{}, fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	if len(tenant) > MaxTenantLen {
		s.m.rejection("tenant_too_long")
		return Job{}, fmt.Errorf("%w: %d bytes, at most %d", ErrTenantTooLong, len(tenant), MaxTenantLen)
	}
	scen, _, err := mlcdsys.AnalyzeScenario(req)
	if err != nil {
		s.m.rejection("invalid_requirements")
		return Job{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.m.rejection("shutting_down")
		return Job{}, ErrShuttingDown
	}
	// Admission control: all senders serialize on s.mu and workers only
	// drain, so this capacity check cannot race into a blocking send.
	if len(s.queue) == cap(s.queue) {
		s.m.rejection("queue_full")
		return Job{}, ErrQueueFull
	}
	s.nextID++
	rec := &job{
		id:       fmt.Sprintf("%s-%04d", s.idPrefix, s.nextID),
		name:     name,
		tenant:   tenant,
		workload: w,
		req:      req,
		status:   StatusQueued,
	}
	if s.journal != nil {
		err := s.journalAppend(journalRecord{
			Type:          "submit",
			ID:            rec.id,
			Job:           name,
			Tenant:        tenant,
			BudgetUSD:     req.Budget,
			DeadlineHours: req.Deadline.Hours(),
		})
		if err != nil {
			// Durability is the journal's contract; an unjournaled job
			// would silently vanish on restart, so refuse it. The ID
			// sequence stays consumed: a "failed" append can still have
			// landed durably (fsync error after the write reached the
			// file), and reusing the ID would bind two different
			// submissions to one journal identity.
			return Job{}, err
		}
	}
	s.tenants[tenant] = true
	s.jobs[rec.id] = rec
	s.order = append(s.order, rec.id)
	s.queue <- rec
	s.m.submissions.Inc()
	s.m.queueDepth.Set(float64(len(s.queue)))
	rec.trace = s.traces.Start(rec.id, name, tenant, scen.String())
	rec.trace.Emit(obs.Event{Kind: "submitted", Note: constraintNote(req)})
	return rec.snapshotLocked(), nil
}

// Cancel aborts a submission: a queued job goes straight to cancelled; a
// running one has its context cancelled and reaches cancelled when the
// search notices. Terminal jobs return ErrFinished.
func (s *Scheduler) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch rec.status {
	case StatusQueued:
		rec.status = StatusCancelled
		rec.userCancelled = true
		s.journalDone(rec)
		s.m.terminal(StatusCancelled)
		rec.trace.Emit(obs.Event{Kind: "cancelled", Note: "cancelled while queued"})
	case StatusRunning:
		rec.userCancelled = true
		if rec.cancel != nil {
			rec.cancel()
		}
	default:
		return rec.snapshotLocked(), ErrFinished
	}
	return rec.snapshotLocked(), nil
}

// Get returns a snapshot of one submission.
func (s *Scheduler) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return rec.snapshotLocked(), true
}

// List returns submissions in submission order, optionally filtered by
// status ("" → all).
func (s *Scheduler) List(filter Status) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		rec := s.jobs[id]
		if filter != "" && rec.status != filter {
			continue
		}
		out = append(out, rec.snapshotLocked())
	}
	return out
}

// Stats describes the scheduler's current load and the cache's savings.
type Stats struct {
	Workers       int            `json:"workers"`
	ActiveWorkers int            `json:"active_workers"`
	QueueDepth    int            `json:"queue_depth"`
	JobsByStatus  map[Status]int `json:"jobs_by_status"`
	Cache         CacheStats     `json:"profile_cache"`
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Workers:       s.workers,
		ActiveWorkers: s.active,
		QueueDepth:    len(s.queue),
		JobsByStatus:  make(map[Status]int),
	}
	for _, rec := range s.jobs {
		st.JobsByStatus[rec.status]++
	}
	s.mu.Unlock()
	st.Cache = s.cache.Stats()
	return st
}

// Load reports the queue's occupancy and capacity plus the worker-pool
// size — what the API layer needs to derive a Retry-After hint for a
// rejected submission.
func (s *Scheduler) Load() (queued, capacity, workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), cap(s.queue), s.workers
}

// Close stops accepting submissions and blocks until every queued and
// running job has finished — the graceful drain.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.journal != nil {
		_ = s.journal.Close()
	}
}

// Shutdown stops accepting submissions and stops starting queued jobs;
// running searches get until ctx is done to finish, then their contexts
// are cancelled and Shutdown returns without waiting further — a search
// wedged on a hung probe must not hold the process hostage past its
// grace period. Jobs still queued (and runs aborted by the deadline)
// keep no terminal journal record, so a scheduler restarted from the
// same journal resumes them. Returns ctx.Err() if the deadline forced
// cancellation.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.stopping = true
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for _, rec := range s.jobs {
			if rec.status == StatusRunning && rec.cancel != nil {
				rec.cancel()
			}
		}
		s.mu.Unlock()
	}
	if s.journal != nil {
		_ = s.journal.Close()
	}
	return err
}

// worker drains the queue until it closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for rec := range s.queue {
		s.runJob(rec)
	}
}

// runJob executes one submission end to end.
func (s *Scheduler) runJob(rec *job) {
	s.mu.Lock()
	if s.stopping || rec.status != StatusQueued {
		// Hard shutdown, or cancelled while queued: leave the record as
		// is. Under shutdown the job keeps its journal claim and is
		// recovered on restart.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	rec.status = StatusRunning
	rec.cancel = cancel
	s.active++
	s.m.activeWorkers.Set(float64(s.active))
	s.m.queueDepth.Set(float64(len(s.queue)))
	warm := s.cache.Observations(rec.workload)
	s.mu.Unlock()
	defer cancel()

	prior := s.FleetPrior()
	if prior.KeyCount() > 0 {
		s.m.fleetArmed.Inc()
	}
	rec.trace.Emit(obs.Event{Kind: "started",
		Note: fmt.Sprintf("search started with %d warm-start observation(s)", len(warm))})

	rep, err := s.sys.DeployCtx(ctx, rec.workload, rec.req, mlcdsys.DeployOptions{
		WarmStart:  warm,
		FleetPrior: prior,
		WrapProfiler: func(inner profiler.Profiler) profiler.Profiler {
			if s.mw != nil {
				inner = s.mw(inner)
			}
			return &cachingProfiler{sched: s, inner: inner, rec: rec}
		},
		Tracer: rec.trace,
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	s.m.activeWorkers.Set(float64(s.active))
	rec.cancel = nil
	switch {
	case err == nil:
		rec.status = StatusDone
		rec.report = &rep
		s.journalDone(rec)
		s.m.terminal(StatusDone)
		rec.trace.Emit(obs.Event{
			Kind:            "done",
			Deployment:      rep.Outcome.Best.String(),
			Throughput:      rep.Outcome.BestThroughput,
			CumProfileHours: rep.Outcome.ProfileTime.Hours(),
			CumProfileUSD:   rep.Outcome.ProfileCost,
			TrainHours:      rep.TrainTime.Hours(),
			TrainUSD:        rep.TrainCost,
			Note:            fmt.Sprintf("satisfied=%t, total $%.2f in %s", rep.Satisfied, rep.TotalCost, rep.TotalTime),
		})
	case errors.Is(err, context.Canceled):
		if rec.userCancelled {
			rec.status = StatusCancelled
			s.journalDone(rec)
			s.m.terminal(StatusCancelled)
			rec.trace.Emit(obs.Event{Kind: "cancelled", Note: "cancelled while running"})
		} else {
			// Shutdown abort: no terminal record, so a restart resumes
			// the job — warm-started from its already-journaled probes.
			rec.status = StatusQueued
		}
	default:
		rec.status = StatusFailed
		rec.err = err.Error()
		s.journalDone(rec)
		s.m.terminal(StatusFailed)
		rec.trace.Emit(obs.Event{Kind: "failed", Note: rec.err})
	}
	// The search's paid probes are in the cache now, whether it picked a
	// deployment or declined; fold them into the prior so the next
	// tenant starts warmer. It happens here, under s.mu and before the
	// status is visible, so a client that reads done reads a prior that
	// already holds the job's probes. A shard skips this: its plane's
	// next merge publishes the probes fleet-wide.
	if rec.status == StatusDone || rec.status == StatusFailed {
		s.rebuildFleetPriorLocked()
	}
}

// journalDone records a terminal status. Callers hold s.mu.
func (s *Scheduler) journalDone(rec *job) {
	if s.journal == nil {
		return
	}
	_ = s.journalAppend(journalRecord{
		Type:   "done",
		ID:     rec.id,
		Status: rec.status,
		Error:  rec.err,
	})
}

// journalAppend appends one record, timing the fsync for the metrics.
// A failure increments mlcd_sched_journal_append_errors_total and the
// consecutive-error streak (any success resets it), and comes back
// wrapped in ErrJournal so callers — and the shard plane's health
// checker — can tell storage failures from everything else.
func (s *Scheduler) journalAppend(rec journalRecord) error {
	start := time.Now()
	err := s.journal.append(rec)
	s.m.journalSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.m.journalErrors.Inc()
		s.journalErrStreak.Add(1)
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	s.journalErrStreak.Store(0)
	s.m.journalAppends.Inc()
	return nil
}

// JournalErrStreak reports how many journal appends in a row have
// failed (0 = the last append succeeded, or none happened yet).
func (s *Scheduler) JournalErrStreak() int {
	return int(s.journalErrStreak.Load())
}

// ProbeJournal appends a no-op health record and reports whether it
// became durable — the shard plane's liveness probe for this shard's
// disk. Health records are ignored on replay and shed by compaction.
// Returns nil when the scheduler does not journal (nothing to fail).
func (s *Scheduler) ProbeJournal() error {
	if s.journal == nil {
		return nil
	}
	return s.journalAppend(journalRecord{Type: "health"})
}

// HasTenant reports whether tenant has ever submitted to (or been
// recovered by) this scheduler — the shard plane's "does this tenant
// already have state here" test when routing around a degraded shard.
func (s *Scheduler) HasTenant(tenant string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[tenant]
}

// snapshotLocked copies the record for callers. Callers hold s.mu.
func (rec *job) snapshotLocked() Job {
	return Job{
		ID:           rec.id,
		Name:         rec.name,
		Tenant:       rec.tenant,
		Workload:     rec.workload,
		Requirements: rec.req,
		Status:       rec.status,
		Err:          rec.err,
		Report:       rec.report,
		CacheHits:    rec.cacheHits,
		SavedUSD:     rec.savedUSD,
	}
}

// cachingProfiler routes every probe of one running job through the
// shared cache: hits come back free (the search is charged nothing and
// the savings are booked to the tenant), misses are measured exactly
// once — even across concurrent jobs, via the cache's singleflight — and
// journaled so a restart never re-pays for them.
type cachingProfiler struct {
	sched *Scheduler
	inner profiler.Profiler
	rec   *job
}

// Profile implements profiler.Profiler.
func (p *cachingProfiler) Profile(j workload.Job, d cloud.Deployment) profiler.Result {
	res, hit := p.sched.cache.Do(j, d, p.rec.tenant, func() profiler.Result {
		return p.inner.Profile(j, d)
	})
	if hit {
		p.sched.mu.Lock()
		p.rec.cacheHits++
		p.rec.savedUSD += res.Cost
		p.sched.mu.Unlock()
		p.sched.m.cacheHits.Inc()
		p.sched.m.cacheSavedUSD.Add(res.Cost)
		p.rec.trace.Emit(obs.Event{
			Kind:       "cache_hit",
			Deployment: res.Deployment.String(),
			Throughput: res.Throughput,
			SavedUSD:   res.Cost,
			Note:       "probe answered from the shared cache at zero cost",
		})
		// The measurement is reused: the job pays neither time nor money.
		res.Duration = 0
		res.Cost = 0
		return res
	}
	p.sched.m.cacheMisses.Inc()
	if !res.Failed && p.sched.journal != nil {
		if enc, ok := search.EncodeObservation(search.Observation{Deployment: res.Deployment, Throughput: res.Throughput}); ok {
			_ = p.sched.journalAppend(journalRecord{
				Type:        "probe",
				Job:         p.rec.name,
				Observation: &enc,
				DurationSec: res.Duration.Seconds(),
				CostUSD:     res.Cost,
			})
		}
	}
	return res
}

// ProfileAt implements profiler.FidelityProfiler: sub-sampled probes
// BYPASS the shared cache and the journal entirely. A biased short
// burst must never be served to another tenant (or to a restarted
// search, which would absorb it as a warm-start truth) as if it were a
// full measurement — only full-fidelity probes are cacheable facts.
func (p *cachingProfiler) ProfileAt(j workload.Job, d cloud.Deployment, f float64) profiler.Result {
	if profiler.Fid(f) >= 1 {
		return p.Profile(j, d)
	}
	return profiler.ProbeAt(p.inner, j, d, f)
}
