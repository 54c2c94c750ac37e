package shardplane

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlcd/internal/faultfs"
	"mlcd/internal/fleetprior"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
	"mlcd/internal/sched"
	"mlcd/internal/workload"
)

// Config assembles a Plane. It is also mlcdapi.ServerConfig, the HTTP
// service's configuration: there Shards < 2 runs one scheduler instead
// of a plane, journaling straight into JournalDir, and MergeEvery and
// HealthEvery apply to the plane only.
type Config struct {
	// Shards is the number of independent scheduler shards (default 2).
	Shards int
	// Workers is the search worker-pool size of EACH shard (default 1).
	Workers int
	// QueueSize bounds EACH shard's submission queue (default 64).
	QueueSize int
	// Jobs is the submission menu shared by every shard (nil → every
	// predefined workload).
	Jobs map[string]workload.Job
	// JournalDir enables per-shard segmented journals under
	// JournalDir/shard-N ("" → no journaling), each compacting itself
	// every minute. A restarted plane — even one restarted with a
	// different shard count — replays each shard directory it finds.
	JournalDir string
	// MergeEvery is the cache snapshot merge cadence (0 → 1s; < 0
	// disables the loop — tests then drive MergeNow explicitly).
	MergeEvery time.Duration
	// ProfilerMiddleware wraps each shard's measuring profiler inside its
	// cache (instrumentation; see sched.Config.ProfilerMiddleware).
	ProfilerMiddleware func(profiler.Profiler) profiler.Profiler
	// FS is the storage under every shard journal (nil → the real
	// filesystem). The storage-fault test hook; see internal/faultfs.
	FS faultfs.FS
	// HealthEvery is the journal health-probe cadence (0 → 1s; < 0
	// disables the loop — tests then drive CheckHealth explicitly).
	HealthEvery time.Duration
	// FleetPrior enables the fleet meta-prior on every shard: each merge
	// aggregates the union of all shards' full-fidelity measurements into
	// cross-job transfer curves and publishes them fleet-wide, so a new
	// tenant on any shard starts from what every other tenant has paid to
	// learn. The merge is the prior's only publisher: shards run with
	// sched.Config.FleetPrior off and never rebuild their own. Off by
	// default.
	FleetPrior bool
}

// Plane routes tenants across N scheduler shards via a consistent-hash
// ring. Each shard is a full sched.Scheduler — bounded queue, worker
// pool, segmented journal, hot profiling cache — and the plane adds the
// pieces that make them one service: deterministic routing, ID-based
// lookup, aggregate stats, and the shared cache snapshot tier.
type Plane struct {
	ring   *Ring
	caches []*sched.ProfileCache
	traces *obs.Recorder // shared by every shard: job IDs are globally unique

	// shards is guarded by mu: RestartShard swaps one entry while API
	// traffic keeps flowing to the others. Everything else about a shard
	// slot — its cache, config template, health record — is immutable.
	mu        sync.RWMutex
	shards    []*sched.Scheduler
	sys       *mlcdsys.System
	shardCfgs []sched.Config // rebuild templates for RestartShard

	health []*shardHealthRec

	// fleetResolve is non-nil when the fleet meta-prior is on: it maps a
	// cache key's job back to its model family when merges rebuild the
	// fleet-wide prior.
	fleetResolve fleetprior.Resolver

	merges        *obs.Counter
	snapEntries   *obs.Gauge
	healthyGauge  []*obs.Gauge
	degradedTotal []*obs.Counter
	readmitTotal  []*obs.Counter
	rerouted      *obs.Counter
	rejected      *obs.Counter

	stop       chan struct{} // closes the merge loop
	done       chan struct{} // merge loop exited
	healthStop chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once
}

// shard returns slot i's current scheduler; RestartShard may swap it.
func (p *Plane) shard(i int) *sched.Scheduler {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.shards[i]
}

// allShards snapshots the shard slice for iteration.
func (p *Plane) allShards() []*sched.Scheduler {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*sched.Scheduler, len(p.shards))
	copy(out, p.shards)
	return out
}

// New builds the plane over one MLCD system. Shard i journals under
// JournalDir/shard-i and mints IDs "si-job-NNNN", so every ID is
// routable back to its shard. The shards recover concurrently
// (recoverShards), so a restart costs the slowest shard's replay, not
// the sum; if any fails, New names the lowest failing shard and none of
// the recovered jobs runs. Otherwise the first merge publishes the
// recovered caches and fleet prior before any shard starts its workers,
// so no recovered search begins without the plane-wide warm-start
// state; the merge and health loops start last.
func New(sys *mlcdsys.System, cfg Config) (*Plane, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Jobs == nil {
		cfg.Jobs = sched.DefaultMenu()
	}
	reg := sys.Metrics()
	p := &Plane{
		ring:   NewRing(cfg.Shards),
		traces: obs.NewRecorder(0),
		sys:    sys,
		merges: reg.Counter("mlcd_shardplane_snapshot_merges_total",
			"Cache snapshot merges published to every shard."),
		snapEntries: reg.Gauge("mlcd_shardplane_snapshot_entries",
			"Measurements in the current shared cache snapshot."),
		rerouted: reg.Counter("mlcd_shardplane_rerouted_submissions_total",
			"New-tenant submissions placed off their home shard because it was degraded."),
		rejected: reg.Counter("mlcd_shardplane_rejected_degraded_total",
			"Submissions refused because the tenant's shard was degraded."),
	}
	reg.Gauge("mlcd_shardplane_shards", "Scheduler shards in the control plane.").
		Set(float64(cfg.Shards))
	if cfg.FleetPrior {
		jobs := make([]workload.Job, 0, len(cfg.Jobs))
		for _, j := range cfg.Jobs {
			jobs = append(jobs, j)
		}
		p.fleetResolve = fleetprior.MenuResolver(jobs)
	}
	for i := 0; i < cfg.Shards; i++ {
		sc := sched.Config{
			Workers:            cfg.Workers,
			QueueSize:          cfg.QueueSize,
			Jobs:               cfg.Jobs,
			Cache:              sched.NewProfileCache(),
			Traces:             p.traces,
			ProfilerMiddleware: cfg.ProfilerMiddleware,
			IDPrefix:           fmt.Sprintf("s%d-job", i),
			ShardLabel:         strconv.Itoa(i),
			FS:                 cfg.FS,
		}
		if cfg.JournalDir != "" {
			sc.JournalDir = filepath.Join(cfg.JournalDir, fmt.Sprintf("shard-%d", i))
		}
		p.shardCfgs = append(p.shardCfgs, sc)
	}
	shards, err := recoverShards(sys, p.shardCfgs)
	if err != nil {
		return nil, err
	}
	p.shards = shards
	for i, sc := range p.shardCfgs {
		p.caches = append(p.caches, sc.Cache)
		p.health = append(p.health, &shardHealthRec{})
		label := obs.L{Key: "shard", Value: strconv.Itoa(i)}
		g := reg.Gauge("mlcd_shardplane_shard_healthy",
			"1 while the shard's journal accepts writes, 0 while degraded.", label)
		g.Set(1)
		p.healthyGauge = append(p.healthyGauge, g)
		p.degradedTotal = append(p.degradedTotal, reg.Counter(
			"mlcd_shardplane_shard_degraded_total",
			"Times this shard was flipped to degraded.", label))
		p.readmitTotal = append(p.readmitTotal, reg.Counter(
			"mlcd_shardplane_shard_readmitted_total",
			"Times this shard recovered and rejoined the ring.", label))
	}
	// Journals replayed: publish what the shards recovered before any
	// search or submission, so a recovered search warm-starts from every
	// shard's measurements and a tenant remapped by the restart (reshard)
	// finds its old shard's measurements in the shared tier immediately.
	p.MergeNow()
	for _, s := range shards {
		s.Start()
	}

	every := cfg.MergeEvery
	if every == 0 {
		every = time.Second
	}
	if every > 0 {
		p.stop = make(chan struct{})
		p.done = make(chan struct{})
		go p.mergeLoop(every)
	}
	healthEvery := cfg.HealthEvery
	if healthEvery == 0 {
		healthEvery = time.Second
	}
	if healthEvery > 0 {
		p.healthStop = make(chan struct{})
		p.healthDone = make(chan struct{})
		go p.healthLoop(healthEvery)
	}
	return p, nil
}

// recoverShards runs sched.Recover for every shard config at once and
// joins. On any failure it closes the shards that did recover — none has
// started a worker, so none of their recovered jobs runs — and reports
// the lowest failing index.
func recoverShards(sys *mlcdsys.System, cfgs []sched.Config) ([]*sched.Scheduler, error) {
	shards := make([]*sched.Scheduler, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, sc := range cfgs {
		wg.Add(1)
		go func(i int, sc sched.Config) {
			defer wg.Done()
			shards[i], errs[i] = sched.Recover(sys, sc)
		}(i, sc)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		for _, s := range shards {
			if s != nil {
				s.Close()
			}
		}
		return nil, fmt.Errorf("shardplane: building shard %d: %w", i, err)
	}
	return shards, nil
}

// Ring exposes the tenant→shard mapping.
func (p *Plane) Ring() *Ring { return p.ring }

// Shards returns the shard count.
func (p *Plane) Shards() int { return len(p.shards) }

// Shard returns shard i's scheduler (stats, tests, direct control).
func (p *Plane) Shard(i int) *sched.Scheduler { return p.shard(i) }

// Traces returns the plane-wide timeline recorder.
func (p *Plane) Traces() *obs.Recorder { return p.traces }

// ShardFor reports which shard owns a tenant.
func (p *Plane) ShardFor(tenant string) int { return p.ring.Shard(tenant) }

// shardForID routes a job ID ("s3-job-0042") back to its shard.
func (p *Plane) shardForID(id string) (int, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	dash := strings.IndexByte(id, '-')
	if dash < 2 {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:dash])
	if err != nil || n < 0 || n >= len(p.shards) {
		return 0, false
	}
	return n, true
}

// Submit routes one submission to its tenant's shard. A degraded home
// shard splits the decision: a tenant the shard already knows is
// refused with ErrShardDegraded (placing it elsewhere would fork its
// history across two journals), while a tenant the shard has never seen
// is placed on the next healthy shard clockwise — new business keeps
// flowing during a partial storage outage.
func (p *Plane) Submit(name, tenant string, req mlcdsys.Requirements) (sched.Job, error) {
	home := p.ring.Shard(tenant)
	if !p.Degraded(home) {
		return p.shard(home).Submit(name, tenant, req)
	}
	if p.shard(home).HasTenant(tenant) {
		p.rejected.Inc()
		return sched.Job{}, ErrShardDegraded
	}
	alt := p.ring.ShardExcluding(tenant, p.Degraded)
	if alt < 0 {
		p.rejected.Inc()
		return sched.Job{}, ErrShardDegraded
	}
	p.rerouted.Inc()
	return p.shard(alt).Submit(name, tenant, req)
}

// Get returns a snapshot of one submission, routed by ID.
func (p *Plane) Get(id string) (sched.Job, bool) {
	i, ok := p.shardForID(id)
	if !ok {
		return sched.Job{}, false
	}
	return p.shard(i).Get(id)
}

// Cancel aborts one submission, routed by ID.
func (p *Plane) Cancel(id string) (sched.Job, error) {
	i, ok := p.shardForID(id)
	if !ok {
		return sched.Job{}, sched.ErrNotFound
	}
	return p.shard(i).Cancel(id)
}

// List returns every shard's submissions, shard-major: shard 0's jobs
// in submission order, then shard 1's, and so on. Within a shard the
// order is the shard's own submission order; there is no global clock
// across shards to interleave by.
func (p *Plane) List(filter sched.Status) []sched.Job {
	var out []sched.Job
	for _, s := range p.allShards() {
		out = append(out, s.List(filter)...)
	}
	return out
}

// Load reports the queue occupancy, capacity, and worker count of the
// shard that owns tenant — the inputs to a Retry-After hint.
func (p *Plane) Load(tenant string) (queued, capacity, workers int) {
	return p.shard(p.ring.Shard(tenant)).Load()
}

// Stats is the plane-wide load picture: per-shard scheduler stats plus
// their aggregate. Cache entry counts may overlap across shards (the
// same measurement promoted into several hot maps), so the aggregate
// counts reuse, not distinct measurements — the snapshot entry count is
// the deduplicated figure.
type Stats struct {
	Shards          int           `json:"shards"`
	SnapshotEntries int           `json:"snapshot_entries"`
	Aggregate       sched.Stats   `json:"aggregate"`
	PerShard        []sched.Stats `json:"per_shard"`
}

// Stats snapshots every shard.
func (p *Plane) Stats() Stats {
	st := Stats{Shards: p.Shards()}
	agg := sched.Stats{JobsByStatus: make(map[sched.Status]int)}
	for _, s := range p.allShards() {
		ss := s.Stats()
		st.PerShard = append(st.PerShard, ss)
		agg.Workers += ss.Workers
		agg.ActiveWorkers += ss.ActiveWorkers
		agg.QueueDepth += ss.QueueDepth
		for k, v := range ss.JobsByStatus {
			agg.JobsByStatus[k] += v
		}
		agg.Cache.Entries += ss.Cache.Entries
		agg.Cache.Hits += ss.Cache.Hits
		agg.Cache.SnapshotHits += ss.Cache.SnapshotHits
		agg.Cache.Misses += ss.Cache.Misses
		agg.Cache.SavedUSD += ss.Cache.SavedUSD
		agg.Cache.SavedProfileHours += ss.Cache.SavedProfileHours
	}
	if total := agg.Cache.Hits + agg.Cache.Misses; total > 0 {
		agg.Cache.HitRate = float64(agg.Cache.Hits) / float64(total)
	}
	if len(st.PerShard) > 0 {
		// Every shard holds the same shared snapshot; shard 0 speaks for all.
		st.SnapshotEntries = st.PerShard[0].Cache.SnapshotEntries
	}
	agg.Cache.SnapshotEntries = st.SnapshotEntries
	st.Aggregate = agg
	return st
}

// MergeNow builds the union of every shard's hot cache and installs it
// as the shared read-only tier on all shards. Shards are merged in
// index order; identical keys hold identical measurements (the journal
// and singleflight guarantee one measurement per key), so order only
// matters for determinism, not correctness.
func (p *Plane) MergeNow() {
	merged := make(map[string]profiler.Result)
	for _, c := range p.caches {
		for k, v := range c.Export() {
			if _, ok := merged[k]; !ok {
				merged[k] = v
			}
		}
	}
	snap := sched.NewCacheSnapshot(merged)
	for _, c := range p.caches {
		c.SetSnapshot(snap)
	}
	if p.fleetResolve != nil {
		// The same merged union, read as transfer evidence: publish the
		// fleet-wide meta-prior so a new tenant on any shard starts from
		// every other tenant's full-fidelity measurements. BuildFromCache
		// sorts internally, so the prior is identical on every shard
		// regardless of map iteration order.
		prior := fleetprior.BuildFromCache(merged, p.fleetResolve)
		for _, s := range p.allShards() {
			s.SetFleetPrior(prior)
		}
	}
	p.merges.Inc()
	p.snapEntries.Set(float64(snap.Len()))
}

// FleetPrior returns the fleet-wide meta-prior the last merge published
// (nil when the feature is off or nothing has been learned yet). Every
// shard holds the same prior; shard 0 speaks for all.
func (p *Plane) FleetPrior() *fleetprior.Prior {
	if p.fleetResolve == nil {
		return nil
	}
	return p.shard(0).FleetPrior()
}

// mergeLoop republishes the shared snapshot on a fixed cadence until
// Close or Shutdown.
func (p *Plane) mergeLoop(every time.Duration) {
	defer close(p.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.MergeNow()
		}
	}
}

// stopMerge halts the merge and health loops exactly once.
func (p *Plane) stopMerge() {
	p.closeOnce.Do(func() {
		if p.stop != nil {
			close(p.stop)
			<-p.done
		}
		if p.healthStop != nil {
			close(p.healthStop)
			<-p.healthDone
		}
	})
}

// RestartShard stops shard i with the given deadline and rebuilds it
// over whatever its journal directory holds — the process-level crash
// drill: jobs mid-search when the deadline expires keep their journal
// claim and are re-enqueued by the replay, the shard's hot cache and
// the shared snapshot tier survive in the slot, and the shard rejoins
// traffic the moment the swap lands. The rebuild is sched.Recover, the
// swap, a merge, then Start: recovered searches begin only once what
// the replay recovered is published. Returns how long the shard was
// out of service. On rebuild failure the old (stopped) scheduler stays
// in the slot, the health loop degrades it, and a later RestartShard
// may try again.
func (p *Plane) RestartShard(ctx context.Context, i int) (time.Duration, error) {
	start := time.Now()
	old := p.shard(i)
	_ = old.Shutdown(ctx) // aborted jobs are journal-claimed; replay re-enqueues them
	fresh, err := sched.Recover(p.sys, p.shardCfgs[i])
	if err != nil {
		return time.Since(start), fmt.Errorf("shardplane: rebuilding shard %d: %w", i, err)
	}
	p.mu.Lock()
	p.shards[i] = fresh
	p.mu.Unlock()
	// Publish what the replay recovered so warm-starts survive the
	// restart immediately instead of waiting for the merge tick.
	p.MergeNow()
	fresh.Start()
	return time.Since(start), nil
}

// Close drains every shard gracefully (queued submissions still run),
// in parallel, then stops the merge loop.
func (p *Plane) Close() {
	var wg sync.WaitGroup
	for _, s := range p.allShards() {
		wg.Add(1)
		go func(s *sched.Scheduler) {
			defer wg.Done()
			s.Close()
		}(s)
	}
	wg.Wait()
	p.stopMerge()
}

// Shutdown stops every shard with the shared deadline, in parallel,
// then stops the merge loop. Returns ctx.Err() if any shard had to
// abort running searches (they keep their journal claim and are
// recovered on restart).
func (p *Plane) Shutdown(ctx context.Context) error {
	shards := p.allShards()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *sched.Scheduler) {
			defer wg.Done()
			errs[i] = s.Shutdown(ctx)
		}(i, s)
	}
	wg.Wait()
	p.stopMerge()
	return errors.Join(errs...)
}
