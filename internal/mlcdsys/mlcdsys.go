// Package mlcdsys is the MLCD system of §IV: the fully automated MLaaS
// training Cloud Deployment pipeline built on HeterBO. It wires together
// the paper's five components:
//
//   - Scenario Analyzer — turns user requirements (deadline / budget)
//     into a search scenario and constraints;
//   - HeterBO Deployment Engine — any search.Searcher, HeterBO by default;
//   - Profiler — probes candidate deployments by actually driving the
//     cloud control plane (launch → warm up → measure → terminate);
//   - Cloud Interface — a cloud.Provider (the simulated EC2 control plane
//     here; the same interface would front a real provider);
//   - ML Platform Interface — per-platform launch plumbing.
//
// Deploy runs the whole pipeline end to end: analyze, search, then
// execute the training run on the chosen deployment, with every
// cluster-hour metered through the provider.
package mlcdsys

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/core"
	"mlcd/internal/fleetprior"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/sim"
	"mlcd/internal/stats"
	"mlcd/internal/workload"
)

// Requirements is what an MLCD user states about a training job.
// Zero values mean "unconstrained".
type Requirements struct {
	Deadline time.Duration // finish (profiling + training) within
	Budget   float64       // spend (profiling + training) at most
}

// ErrConflictingRequirements is returned when both a deadline and a
// budget are set; the paper's scenarios are single-constraint.
var ErrConflictingRequirements = errors.New("mlcdsys: set a deadline or a budget, not both")

// ErrNoSatisfyingDeployment is returned when the search completed but
// none of its observations satisfies the user's deadline or budget:
// rather than train a best-effort pick that is already known to violate
// the requirement, Deploy refuses. Callers can retry with a relaxed
// constraint (warm-started, the repeat search costs nothing).
var ErrNoSatisfyingDeployment = errors.New("no deployment satisfies the requirement")

// AnalyzeScenario is the Scenario Analyzer: it maps requirements onto the
// paper's three scenarios (§III-A).
func AnalyzeScenario(r Requirements) (search.Scenario, search.Constraints, error) {
	switch {
	case r.Deadline > 0 && r.Budget > 0:
		return 0, search.Constraints{}, ErrConflictingRequirements
	case r.Deadline > 0:
		return search.CheapestWithDeadline, search.Constraints{Deadline: r.Deadline}, nil
	case r.Budget > 0:
		return search.FastestWithBudget, search.Constraints{Budget: r.Budget}, nil
	default:
		return search.FastestUnlimited, search.Constraints{}, nil
	}
}

// platformWarmup is the ML Platform Interface: the base setup latency
// each supported training framework adds when a cluster is handed over
// for training. A platform with no entry cannot be deployed.
var platformWarmup = map[workload.Platform]time.Duration{
	workload.TensorFlow: 60 * time.Second,
	workload.MXNet:      45 * time.Second,
	workload.PyTorch:    45 * time.Second,
}

// warmupTime is the platform warm-up on d: the platform's base plus
// rendezvous time, since larger clusters take longer to rendezvous.
func warmupTime(base time.Duration, d cloud.Deployment) time.Duration {
	return base + time.Duration(d.Nodes/4)*15*time.Second
}

// Config assembles a System.
type Config struct {
	Catalog  *cloud.Catalog    // nil → DefaultCatalog
	Limits   cloud.SpaceLimits // zero → DefaultLimits
	Searcher search.Searcher   // nil → HeterBO with Seed
	Provider cloud.Provider    // nil → SimProvider with default quota
	Sim      *sim.Simulator    // nil → sim.New(Seed); the testbed physics
	Metrics  *obs.Registry     // nil → a fresh registry
	Seed     int64
	// Fidelities enables multi-fidelity probing in the default HeterBO
	// searcher: fractions in (0, 1) probes may sub-sample at. Empty
	// keeps every probe full — the classic pipeline, bit for bit.
	// Ignored when an explicit Searcher is supplied.
	Fidelities []float64
	// Resilience tunes the fault-tolerant execution layer's
	// checkpoint/resume for the training run. The zero value keeps
	// checkpointing off and reproduces the legacy behaviour exactly on a
	// fault-free provider.
	Resilience Resilience
}

// System is a configured MLCD instance.
type System struct {
	catalog  *cloud.Catalog
	space    *cloud.Space
	searcher search.Searcher
	provider cloud.Provider
	sim      *sim.Simulator
	metrics  *obs.Registry
	m        sysMetrics
	res      Resilience
	brk      *breaker
}

// sysMetrics holds the pipeline's metric handles, resolved once at New.
type sysMetrics struct {
	launchesOK        *obs.Counter
	launchesTransient *obs.Counter
	launchesRefused   *obs.Counter
	launchRetries     *obs.Counter

	probesOK     *obs.Counter
	probesOOM    *obs.Counter
	probesFailed *obs.Counter
	probesLowFi  *obs.Counter
	profileHours *obs.Counter
	profileUSD   *obs.Counter
	probeSeconds *obs.Histogram

	searchRuns  *obs.Counter
	searchSteps *obs.Counter

	trainRuns          *obs.Counter
	trainHours         *obs.Counter
	trainUSD           *obs.Counter
	trainWarmupSeconds *obs.Counter

	terminateErrors *obs.Counter
	interruptions   *obs.Counter
	trainResumes    *obs.Counter
	lostHours       *obs.Counter
	lostUSD         *obs.Counter
}

// registerMetrics resolves every pipeline metric against r.
func registerMetrics(r *obs.Registry) sysMetrics {
	launches := func(result string) *obs.Counter {
		return r.Counter("mlcd_cluster_launches_total",
			"Cluster launch attempts by result.", obs.L{Key: "result", Value: result})
	}
	probes := func(result string) *obs.Counter {
		return r.Counter("mlcd_profile_probes_total",
			"Profiling probes by result (ok, oom, failed).", obs.L{Key: "result", Value: result})
	}
	// Probe durations are virtual (simulated) seconds: base 10 min plus
	// scale-out and stability extensions, or the short OOM abort.
	probeBuckets := []float64{120, 600, 660, 720, 900, 1200, 1800, 3600}
	return sysMetrics{
		launchesOK:        launches("ok"),
		launchesTransient: launches("transient"),
		launchesRefused:   launches("refused"),
		launchRetries: r.Counter("mlcd_cluster_launch_retries_total",
			"Launch retries after transient control-plane failures."),
		probesOK:     probes("ok"),
		probesOOM:    probes("oom"),
		probesFailed: probes("failed"),
		probesLowFi: r.Counter("mlcd_profile_lowfi_probes_total",
			"Sub-sampled (fidelity < 1) profiling probes taken."),
		profileHours: r.Counter("mlcd_profile_hours_total",
			"Virtual hours spent measuring probes (cache hits excluded)."),
		profileUSD: r.Counter("mlcd_profile_usd_total",
			"Dollars spent measuring probes (cache hits excluded)."),
		probeSeconds: r.Histogram("mlcd_profile_probe_seconds",
			"Per-probe measurement duration in virtual seconds.", probeBuckets),
		searchRuns: r.Counter("mlcd_search_runs_total",
			"Deployment searches completed."),
		searchSteps: r.Counter("mlcd_search_steps_total",
			"Profiling decisions taken across all searches."),
		trainRuns: r.Counter("mlcd_train_runs_total",
			"Training runs executed on chosen deployments."),
		trainHours: r.Counter("mlcd_train_hours_total",
			"Virtual hours of training executed."),
		trainUSD: r.Counter("mlcd_train_usd_total",
			"Dollars billed for training runs."),
		trainWarmupSeconds: r.Counter("mlcd_train_warmup_seconds_total",
			"Virtual seconds of platform warm-up before training."),
		terminateErrors: r.Counter("mlcd_terminate_errors_total",
			"Terminate calls that ultimately failed — the cluster may keep billing."),
		interruptions: r.Counter("mlcd_spot_interruptions_total",
			"Training runs reclaimed by the cloud mid-run."),
		trainResumes: r.Counter("mlcd_train_resumes_total",
			"Training relaunch+resume cycles after interruptions."),
		lostHours: r.Counter("mlcd_train_lost_hours_total",
			"Virtual hours of training work lost to interruptions (billed, redone)."),
		lostUSD: r.Counter("mlcd_train_lost_usd_total",
			"Dollars billed for training work lost to interruptions."),
	}
}

// New builds the system, filling defaults for any nil component.
func New(cfg Config) *System {
	if cfg.Catalog == nil {
		cfg.Catalog = cloud.DefaultCatalog()
	}
	if cfg.Limits == (cloud.SpaceLimits{}) {
		cfg.Limits = cloud.DefaultLimits
	}
	if cfg.Sim == nil {
		cfg.Sim = sim.New(cfg.Seed)
	}
	if cfg.Provider == nil {
		cfg.Provider = cloud.NewSimProvider(cloud.DefaultQuota, 2*time.Minute)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Searcher == nil {
		// The registry must be resolved first so the default searcher can
		// publish its performance histograms on the system's /metrics.
		cfg.Searcher = core.New(core.Options{Seed: cfg.Seed, Metrics: cfg.Metrics, Fidelities: cfg.Fidelities})
	}
	cfg.Resilience = cfg.Resilience.withDefaults()
	s := &System{
		catalog:  cfg.Catalog,
		space:    cloud.NewSpace(cfg.Catalog, cfg.Limits),
		searcher: cfg.Searcher,
		provider: cfg.Provider,
		sim:      cfg.Sim,
		metrics:  cfg.Metrics,
		m:        registerMetrics(cfg.Metrics),
		res:      cfg.Resilience,
		brk:      newBreaker(cfg.Metrics),
	}
	return s
}

// Searcher exposes the deployment engine in use.
func (s *System) Searcher() search.Searcher { return s.searcher }

// Metrics returns the system's observability registry — the single
// registry every layer above (scheduler, API) shares, so GET /metrics
// shows the whole stack.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// Space returns the deployment space MLCD searches. It is built once, in
// New, and shared by every search the System runs — and with the caller:
// a Space is immutable, and so is the encoding it computes on first use.
func (s *System) Space() *cloud.Space { return s.space }

// Catalog returns the instance catalog backing the deployment space —
// needed to re-resolve persisted observations (journal recovery).
func (s *System) Catalog() *cloud.Catalog { return s.catalog }

// clusterProfiler implements profiler.Profiler by exercising the full
// cluster lifecycle through the Cloud Interface for every probe. Every
// real measurement is charged to the metrics registry here — cache hits
// in the scheduler layer never reach this profiler, so the registry's
// profiling totals are exactly the dollars and hours actually paid.
type clusterProfiler struct {
	sys    *System
	ctx    context.Context
	trials map[string]int
	tracer obs.EventSink // nil-safe per-job timeline
}

// launchWithRetry retries Launch across transient failures with
// deterministically-jittered exponential backoff, slept on the provider
// clock, honoring ctx between attempts; quota and other hard errors
// return immediately. It consults the per-provider circuit breaker: an
// open circuit makes the caller sit out the remaining cooldown (charged
// against the job's headroom) before the half-open probe. The returned
// wait is the cumulative virtual time spent waiting — backoffs plus
// breaker cooldowns — which callers charge to the probe even when no
// cluster ever came up. Retries are counted in the metrics registry
// and, when tracer is non-nil, narrated to the job's timeline.
func (s *System) launchWithRetry(ctx context.Context, d cloud.Deployment, tracer obs.EventSink) (*cloud.Cluster, time.Duration, error) {
	var waited time.Duration
	var lastErr error
	for attempt := 0; attempt < launchAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, waited, err
		}
		if cool := s.brk.acquire(s.provider.Now()); cool > 0 {
			if waited+cool > launchWaitLimit {
				return nil, waited, fmt.Errorf("mlcdsys: breaker open past the %s launch deadline: %w", launchWaitLimit, cloud.ErrTransient)
			}
			if tracer != nil {
				tracer.Emit(obs.Event{
					Kind:       "breaker_wait",
					Deployment: d.String(),
					Note:       fmt.Sprintf("circuit open; waiting out %s cooldown", cool),
				})
			}
			s.sleep(ctx, cool)
			waited += cool
		}
		cl, err := s.provider.Launch(d)
		if err == nil {
			s.m.launchesOK.Inc()
			s.brk.success()
			return cl, waited, nil
		}
		lastErr = err
		if !errors.Is(err, cloud.ErrTransient) {
			s.m.launchesRefused.Inc()
			return nil, waited, err
		}
		s.m.launchesTransient.Inc()
		s.brk.failure(s.provider.Now())
		if attempt < launchAttempts-1 {
			backoff := retryBackoff(d, attempt)
			if waited+backoff > launchWaitLimit {
				break
			}
			s.m.launchRetries.Inc()
			if tracer != nil {
				tracer.Emit(obs.Event{
					Kind:       "launch_retry",
					Deployment: d.String(),
					Note:       fmt.Sprintf("attempt %d: %v (backing off %s)", attempt+1, err, backoff),
				})
			}
			s.sleep(ctx, backoff)
			waited += backoff
		}
	}
	return nil, waited, fmt.Errorf("mlcdsys: giving up after %d transient failures: %w", launchAttempts, lastErr)
}

// terminateAttempts bounds the Terminate retry loop. The backoff sum
// across this many attempts exceeds the longest builtin brownout window,
// so a cluster orphaned mid-brownout is still reaped before the loop
// gives up and declares the leak.
const terminateAttempts = 8

// terminate stops a cluster's billing, retrying transient control-plane
// refusals with the launch backoff policy. A Terminate that ultimately
// fails is no longer dropped on the floor: the leak is counted in
// mlcd_terminate_errors_total and narrated to the job's timeline,
// because a cluster nobody terminated keeps billing forever.
func (s *System) terminate(ctx context.Context, cl *cloud.Cluster, tracer obs.EventSink) {
	var lastErr error
	for attempt := 0; attempt < terminateAttempts; attempt++ {
		err := s.provider.Terminate(cl)
		if err == nil {
			return
		}
		lastErr = err
		if !errors.Is(err, cloud.ErrTransient) {
			break
		}
		if attempt < terminateAttempts-1 {
			s.sleep(ctx, retryBackoff(cl.Deployment, attempt))
		}
	}
	s.m.terminateErrors.Inc()
	if tracer != nil {
		tracer.Emit(obs.Event{
			Kind:       "terminate_error",
			Deployment: cl.Deployment.String(),
			Note:       fmt.Sprintf("cluster %s leaked: %v", cl.ID, lastErr),
		})
	}
}

// failedProbe charges a censored probe consistently: the burned time
// and dollars land in the Result (so the search debits its headroom),
// and in the metrics registry (so /metrics reconciles with the traces).
func (p *clusterProfiler) failedProbe(d cloud.Deployment, burned time.Duration, cost float64) profiler.Result {
	m := &p.sys.m
	m.probesFailed.Inc()
	if burned > 0 {
		m.profileHours.Add(burned.Hours())
	}
	if cost > 0 {
		m.profileUSD.Add(cost)
	}
	return profiler.Result{Deployment: d, Failed: true, Duration: burned, Cost: cost}
}

// Profile implements profiler.Profiler: a full-fidelity ProfileAt.
func (p *clusterProfiler) Profile(j workload.Job, d cloud.Deployment) profiler.Result {
	return p.ProfileAt(j, d, 1)
}

// ProfileAt implements profiler.FidelityProfiler: it launches, warms up,
// measures, and tears down a probe cluster. A full probe (f ≥ 1) runs
// the Eq. 7 protocol and takes three measurements; a sub-sampled one
// cuts the measured run to fidelity f, takes a two-measurement burst,
// reports its fidelity and counts in mlcd_profile_lowfi_probes_total.
// The short burst still pays the cluster's setup floor and bills every
// second the cluster ran — including an OOM crash, which bills the
// booked run like any other partial run on this path.
//
// Every failure mode is charged for exactly what it burned: launch
// retries charge their backoff time, a boot timeout charges the billed
// wait, and a mid-run interruption charges the partial run — censored
// observations the search still debits from its TEI headroom.
func (p *clusterProfiler) ProfileAt(j workload.Job, d cloud.Deployment, f float64) profiler.Result {
	f = profiler.Fid(f)
	m := &p.sys.m
	cl, waited, err := p.sys.launchWithRetry(p.ctx, d, p.tracer)
	if err != nil {
		// Quota refusal or persistent failure: the probe never ran and
		// says nothing about the deployment itself — but the time spent
		// backing off is gone either way.
		return p.failedProbe(d, waited, 0)
	}
	defer p.sys.terminate(p.ctx, cl, p.tracer)
	if err := p.sys.provider.WaitReady(cl); err != nil {
		// A typed WaitTimeout burned booked — billed — cluster time.
		burned, cost := waited, 0.0
		var wt *cloud.WaitTimeout
		if errors.As(err, &wt) {
			burned += wt.Waited
			cost = d.CostFor(wt.Waited)
		}
		return p.failedProbe(d, burned, cost)
	}
	elapsed, err := p.sys.provider.Run(cl, profiler.DurationAt(d.Nodes, f))
	if err != nil {
		// The cluster ran (and billed) for elapsed before the failure —
		// a spot reclamation bills its partial run — so the charge still
		// lands on the job and in the profiling ledger.
		return p.failedProbe(d, waited+elapsed, d.CostFor(elapsed))
	}
	iters := 3
	if f < 1 {
		iters = 2
	}
	key := j.String() + "|" + d.Key()
	meas := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		meas = append(meas, p.sys.sim.MeasureThroughputAt(j, d, p.trials[key], f))
		p.trials[key]++
	}
	res := profiler.Result{
		Deployment: d,
		Throughput: stats.Mean(meas),
		Duration:   waited + elapsed,
		Cost:       d.CostFor(elapsed),
		Trials:     len(meas),
	}
	if res.Throughput > 0 {
		m.probesOK.Inc()
	} else {
		m.probesOOM.Inc()
	}
	if f < 1 {
		res.Fidelity = f
		m.probesLowFi.Inc()
	}
	m.profileHours.Add(res.Duration.Hours())
	m.profileUSD.Add(res.Cost)
	m.probeSeconds.Observe(res.Duration.Seconds())
	return res
}

// Report is Deploy's full account of a job's life.
type Report struct {
	Scenario    search.Scenario
	Constraints search.Constraints
	Outcome     search.Outcome

	TrainTime time.Duration // actual training wall-clock (incl. warm-up)
	TrainCost float64       // actual training bill
	TotalTime time.Duration // profiling + training
	TotalCost float64       // profiling + training
	Satisfied bool          // did the run meet the user requirement?

	// Fault-recovery accounting: how many times the training run was
	// interrupted and resumed, and the billed-but-redone work those
	// interruptions cost. Lost time/cost are already included in
	// TrainTime/TrainCost — a reclaimed spot cluster's partial run and
	// its replacement's relaunch both land on the user's bill.
	Interruptions int
	LostTime      time.Duration
	LostCost      float64
}

// DeployOptions customizes one Deploy run without touching the shared
// System configuration. The zero value reproduces plain Deploy.
type DeployOptions struct {
	// WarmStart seeds the search with previously measured observations
	// of the same job (at zero profiling cost) when the configured
	// searcher implements search.WarmStarter; other searchers ignore it.
	WarmStart []search.Observation
	// FleetPrior arms the search's surrogate with the fleet meta-prior
	// (cross-job transfer curves) when the configured searcher implements
	// search.FleetPriorStarter; other searchers ignore it. A nil or empty
	// prior leaves the search untouched, bit for bit.
	FleetPrior *fleetprior.Prior
	// WrapProfiler, when non-nil, wraps the per-run cluster profiler —
	// the scheduler's shared profiling cache hooks in here. The wrapper
	// sits inside the cancellation guard, so a cancelled job never
	// reaches it.
	WrapProfiler func(profiler.Profiler) profiler.Profiler
	// Tracer, when non-nil, receives this run's observability timeline:
	// the search's per-probe ledger (via search.Traceable), launch
	// retries, and the training phase. The scheduler passes each job's
	// recorder sink here.
	Tracer obs.EventSink
}

// ctxProfiler aborts a search cooperatively: once ctx is cancelled every
// probe fails instantly without measuring, so the search drains within a
// bounded number of (free) steps and Deploy can bail out.
type ctxProfiler struct {
	ctx   context.Context
	inner profiler.Profiler
}

func (p ctxProfiler) Profile(j workload.Job, d cloud.Deployment) profiler.Result {
	return p.ProfileAt(j, d, 1)
}

// ProfileAt guards every probe, full or sub-sampled, delegating through
// profiler.ProbeAt so a fidelity-blind inner profiler degrades to a
// full probe instead of an error.
func (p ctxProfiler) ProfileAt(j workload.Job, d cloud.Deployment, f float64) profiler.Result {
	if p.ctx.Err() != nil {
		return profiler.Result{Deployment: d, Failed: true}
	}
	return profiler.ProbeAt(p.inner, j, d, f)
}

// Deploy runs the full MLCD pipeline for a job: analyze requirements,
// search for the deployment, then execute training on it.
func (s *System) Deploy(j workload.Job, req Requirements) (Report, error) {
	return s.DeployCtx(context.Background(), j, req, DeployOptions{})
}

// DeployCtx is Deploy with cancellation and per-run options: analyze
// requirements, search for the deployment (warm-started and profiled
// through opts), then execute training on it. When ctx is cancelled the
// run stops at the next probe or phase boundary and returns ctx's error.
func (s *System) DeployCtx(ctx context.Context, j workload.Job, req Requirements, opts DeployOptions) (Report, error) {
	scen, cons, err := AnalyzeScenario(req)
	if err != nil {
		return Report{}, err
	}
	if err := j.Validate(); err != nil {
		return Report{}, err
	}
	baseWarmup, ok := platformWarmup[j.Platform]
	if !ok {
		return Report{}, fmt.Errorf("mlcdsys: unsupported platform %v", j.Platform)
	}

	// The search engine plans with measured (noisy) throughput and knows
	// nothing about platform warm-up or cluster boot, so the Scenario
	// Analyzer hands it a slightly tightened constraint: 3 % noise slack
	// plus a worst-case warm-up allowance. Satisfaction is still judged
	// against the user's original requirement.
	searchCons := cons
	if cons.Deadline > 0 {
		margin := time.Duration(float64(cons.Deadline)*0.03) + 10*time.Minute
		searchCons.Deadline = cons.Deadline - margin
		if searchCons.Deadline <= 0 {
			return Report{}, fmt.Errorf("mlcdsys: deadline %v too short to deploy anything", cons.Deadline)
		}
	}
	if cons.Budget > 0 {
		searchCons.Budget = cons.Budget * 0.95
	}

	searcher := s.searcher
	if len(opts.WarmStart) > 0 {
		if ws, ok := searcher.(search.WarmStarter); ok {
			searcher = ws.WithWarmStart(opts.WarmStart)
		}
	}
	if opts.FleetPrior.KeyCount() > 0 {
		if fp, ok := searcher.(search.FleetPriorStarter); ok {
			searcher = fp.WithFleetPrior(opts.FleetPrior)
		}
	}
	if opts.Tracer != nil {
		if tr, ok := searcher.(search.Traceable); ok {
			searcher = tr.WithTracer(opts.Tracer)
		}
	}
	var prof profiler.Profiler = &clusterProfiler{sys: s, ctx: ctx, trials: make(map[string]int), tracer: opts.Tracer}
	if opts.WrapProfiler != nil {
		prof = opts.WrapProfiler(prof)
	}
	prof = ctxProfiler{ctx: ctx, inner: prof}
	out, err := searcher.Search(j, s.space, scen, searchCons, prof)
	if err != nil {
		return Report{}, fmt.Errorf("mlcdsys: search failed: %w", err)
	}
	s.m.searchRuns.Inc()
	s.m.searchSteps.Add(float64(len(out.Steps)))
	s.metrics.Counter("mlcd_search_stops_total",
		"Search stop decisions by reason.", obs.L{Key: "reason", Value: out.Stopped}).Inc()
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if out.Best.Nodes == 0 {
		return Report{}, fmt.Errorf("mlcdsys: search found no runnable deployment")
	}
	if !out.Found && scen != search.FastestUnlimited {
		// The search's pick is best-effort: no observation satisfies the
		// user constraint. Training it anyway would knowingly blow the
		// deadline or budget — often by a large multiple — so decline and
		// let the caller relax the requirement instead.
		return Report{}, fmt.Errorf("mlcdsys: best candidate %s cannot meet the %s requirement: %w",
			out.Best, scen, ErrNoSatisfyingDeployment)
	}

	// Execute training on the chosen deployment.
	warmup := warmupTime(baseWarmup, out.Best)
	if opts.Tracer != nil {
		opts.Tracer.Emit(obs.Event{
			Kind:       "train_started",
			Deployment: out.Best.String(),
			Note:       fmt.Sprintf("platform warm-up %s", warmup),
		})
	}
	tr, err := s.runTraining(ctx, j, out.Best, warmup, opts.Tracer)
	if err != nil {
		return Report{}, err
	}
	s.m.trainRuns.Inc()
	s.m.trainHours.Add(tr.Time.Hours())
	s.m.trainUSD.Add(tr.Cost)
	if opts.Tracer != nil {
		opts.Tracer.Emit(obs.Event{
			Kind:       "train_done",
			Deployment: out.Best.String(),
			TrainHours: tr.Time.Hours(),
			TrainUSD:   tr.Cost,
		})
	}

	rep := Report{
		Scenario:      scen,
		Constraints:   cons,
		Outcome:       out,
		TrainTime:     tr.Time,
		TrainCost:     tr.Cost,
		TotalTime:     out.ProfileTime + tr.Time,
		TotalCost:     out.ProfileCost + tr.Cost,
		Interruptions: tr.Interruptions,
		LostTime:      tr.LostTime,
		LostCost:      tr.LostCost,
	}
	switch scen {
	case search.CheapestWithDeadline:
		rep.Satisfied = rep.TotalTime <= cons.Deadline
	case search.FastestWithBudget:
		rep.Satisfied = rep.TotalCost <= cons.Budget
	default:
		rep.Satisfied = true
	}
	return rep, nil
}

// trainingOutcome accounts one resilient training execution: everything
// billed (including lost work and repeated warm-ups) and the
// interruption ledger.
type trainingOutcome struct {
	Time          time.Duration
	Cost          float64
	Interruptions int
	LostTime      time.Duration
	LostCost      float64
}

// runTraining executes the training run on d, surviving spot
// interruptions via checkpoint epochs. With Resilience.CheckpointEvery
// set, training proceeds in checkpointed chunks: a reclaimed cluster
// loses only the partial chunk since the last checkpoint (billed, and
// booked as lost work), and training resumes there on a relaunched
// cluster after a fresh platform warm-up. Without checkpointing an
// interruption restarts from scratch. Every relaunch consumes one of
// Resilience.MaxResumes; exhausting them fails the deployment.
func (s *System) runTraining(ctx context.Context, j workload.Job, d cloud.Deployment, warmup time.Duration, tracer obs.EventSink) (trainingOutcome, error) {
	work := s.sim.TrainTime(j, d)
	var out trainingOutcome
	var done time.Duration // checkpointed training progress
	resumes := 0
	for {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		cl, waited, err := s.launchWithRetry(ctx, d, tracer)
		// Time spent backing off never bills, but the deadline clock
		// does not stop for it.
		out.Time += waited
		if err != nil {
			return out, fmt.Errorf("mlcdsys: launching training cluster: %w", err)
		}
		if err := s.provider.WaitReady(cl); err != nil {
			s.terminate(ctx, cl, tracer)
			var wt *cloud.WaitTimeout
			if errors.As(err, &wt) {
				// The hung boot billed its whole wait: charged, and all
				// of it lost.
				cost := d.CostFor(wt.Waited)
				out.Time += wt.Waited
				out.Cost += cost
				out.LostTime += wt.Waited
				out.LostCost += cost
				s.m.lostHours.Add(wt.Waited.Hours())
				s.m.lostUSD.Add(cost)
			}
			if resumes >= s.res.MaxResumes {
				return out, fmt.Errorf("mlcdsys: training cluster never became ready: %w", err)
			}
			resumes++
			s.m.trainResumes.Inc()
			continue
		}

		// Run this cluster in checkpointed segments. The first segment
		// carries the platform warm-up — paid again by every relaunch.
		pending := warmup
		interrupted := false
		for done < work || pending > 0 {
			if err := ctx.Err(); err != nil {
				s.terminate(ctx, cl, tracer)
				return out, err
			}
			chunk := work - done
			if s.res.CheckpointEvery > 0 && chunk > s.res.CheckpointEvery {
				chunk = s.res.CheckpointEvery
			}
			seg := pending + chunk
			elapsed, err := s.provider.Run(cl, seg)
			if err != nil {
				var spot *cloud.SpotInterruption
				if !errors.As(err, &spot) {
					s.terminate(ctx, cl, tracer)
					return out, fmt.Errorf("mlcdsys: training run failed: %w", err)
				}
				// Spot reclamation mid-segment: the partial run billed,
				// and none of it reached a checkpoint.
				cost := d.CostFor(elapsed)
				out.Time += elapsed
				out.Cost += cost
				out.LostTime += elapsed
				out.LostCost += cost
				out.Interruptions++
				s.m.interruptions.Inc()
				s.m.lostHours.Add(elapsed.Hours())
				s.m.lostUSD.Add(cost)
				if tracer != nil {
					tracer.Emit(obs.Event{
						Kind:       "spot_interruption",
						Deployment: d.String(),
						LostHours:  elapsed.Hours(),
						LostUSD:    cost,
						Note:       fmt.Sprintf("reclaimed %s into a %s segment; checkpoint holds %s of %s", elapsed, seg, done, work),
					})
				}
				interrupted = true
				break
			}
			// Stragglers may stretch the segment; whatever it actually
			// took is what bills.
			out.Time += elapsed
			out.Cost += d.CostFor(elapsed)
			if pending > 0 {
				s.m.trainWarmupSeconds.Add(pending.Seconds())
			}
			done += chunk
			pending = 0
		}
		s.terminate(ctx, cl, tracer)
		if !interrupted {
			return out, nil
		}
		if resumes >= s.res.MaxResumes {
			return out, fmt.Errorf("mlcdsys: training interrupted %d times, resume budget exhausted: %w",
				out.Interruptions, cloud.ErrSpotInterrupted)
		}
		resumes++
		s.m.trainResumes.Inc()
		if s.res.CheckpointEvery <= 0 {
			done = 0 // no checkpoints to resume from: start over
		}
		if tracer != nil {
			tracer.Emit(obs.Event{
				Kind:       "train_resumed",
				Deployment: d.String(),
				Note:       fmt.Sprintf("resume %d: relaunching from checkpoint %s of %s", resumes, done, work),
			})
		}
	}
}
