package sched

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/fleetprior"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

// ProfileCache is the shared profiling store at the heart of the
// scheduler: every measured probe of (job, instance type, node count) is
// kept, so concurrent or later submissions of the same workload reuse
// the measurement instead of re-paying the profiling bill — the paper's
// scarce resource. Concurrent requests for the same key are deduplicated
// singleflight-style: one caller measures, the rest wait and share.
//
// The cache also keeps the savings ledger: profiling dollars and hours
// that cache hits spared, in total and per tenant.
//
// Under the sharded control plane (internal/shardplane) the cache is
// the *hot tier* of a two-tier structure: each shard owns one, and a
// merge loop periodically publishes the union of every shard's entries
// as an immutable CacheSnapshot installed on all shards. A miss in the
// hot map falls through to the snapshot before measuring, and a
// snapshot hit is promoted into the hot map — so a tenant rerouted to a
// different shard by a reshard still warm-starts from measurements its
// old shard paid for.
type ProfileCache struct {
	mu       sync.Mutex
	entries  map[string]profiler.Result
	byJob    map[string][]string // job key → its keys in entries, in store order
	inflight map[string]*flight
	snap     atomic.Pointer[CacheSnapshot] // shared read-only tier (may be nil)

	// recording turns on the stored-key log its scheduler's fleet-prior
	// fold drains (startFold, foldStored); added holds the keys first
	// stored since the last drain, and replaced notes a store over a key
	// already held. Off, as on every shard, nothing is logged.
	recording bool
	added     []string
	replaced  bool

	hits         int
	snapshotHits int // subset of hits answered by the shared tier
	misses       int
	savedUSD     float64
	savedTime    time.Duration
	byTenant     map[string]float64
}

// CacheSnapshot is an immutable, shareable view of merged cache entries
// — the read-only tier. It is built once (NewCacheSnapshot) and then
// only ever read, so shards consult it without locking.
type CacheSnapshot struct {
	entries map[string]profiler.Result
	byJob   map[string][]string // job key → its keys in entries
}

// NewCacheSnapshot builds a snapshot from merged entries. The map is
// owned by the snapshot afterwards; callers must not mutate it.
func NewCacheSnapshot(entries map[string]profiler.Result) *CacheSnapshot {
	byJob := make(map[string][]string)
	for key := range entries {
		job := jobOfKey(key)
		byJob[job] = append(byJob[job], key)
	}
	return &CacheSnapshot{entries: entries, byJob: byJob}
}

// jobOfKey returns the job part of a cache key: what precedes its first
// '|'. cacheKey puts the job's String there, which holds no '|'.
func jobOfKey(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// Len reports how many measurements the snapshot holds.
func (s *CacheSnapshot) Len() int {
	if s == nil {
		return 0
	}
	return len(s.entries)
}

// flight is one in-progress measurement that followers wait on.
type flight struct {
	done chan struct{}
	res  profiler.Result
}

// NewProfileCache returns an empty cache.
func NewProfileCache() *ProfileCache {
	return &ProfileCache{
		entries:  make(map[string]profiler.Result),
		byJob:    make(map[string][]string),
		inflight: make(map[string]*flight),
		byTenant: make(map[string]float64),
	}
}

// cacheKey identifies one profiling measurement. Throughput depends on
// the full job identity (model, dataset, platform, topology), not just
// its display name, so the workload's String form is part of the key.
func cacheKey(j workload.Job, d cloud.Deployment) string {
	return j.String() + "|" + d.Key()
}

// storeLocked is the one place an entry enters the hot map: it indexes a
// new key under its job and, when recording, logs it for the prior fold.
// Callers hold c.mu.
func (c *ProfileCache) storeLocked(key string, res profiler.Result) {
	_, held := c.entries[key]
	c.entries[key] = res
	switch {
	case !held:
		job := jobOfKey(key)
		c.byJob[job] = append(c.byJob[job], key)
		if c.recording {
			c.added = append(c.added, key)
		}
	case c.recording:
		// Only a measurement landing on a key a snapshot promotion
		// filled meanwhile replaces an entry.
		c.replaced = true
	}
}

// startFold folds every entry the cache holds into f and turns on the
// stored-key log that foldStored drains from then on, so that the fold
// always holds exactly the entries Export would have returned at the
// last drain. It reports false, and changes nothing, when the log is
// already on: one cache feeds at most one fold. A fold is only touched
// under c.mu.
func (c *ProfileCache) startFold(f *fleetprior.Fold) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recording {
		return false
	}
	c.recording = true
	c.foldAllLocked(f)
	return true
}

// foldStored folds the entries first stored since the last drain into f,
// each as the hot map holds it now, empties the log and reports true. It
// reports false, folding nothing, when an entry was replaced meanwhile:
// f then holds a sample the cache no longer has, and the caller refolds
// the whole cache into a fresh fold.
func (c *ProfileCache) foldStored(f *fleetprior.Fold) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replaced {
		return false
	}
	for _, key := range c.added {
		f.Add(key, c.entries[key])
	}
	c.added = c.added[:0]
	return true
}

// refold folds every entry the cache holds into f, a fresh fold, and
// empties the log.
func (c *ProfileCache) refold(f *fleetprior.Fold) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldAllLocked(f)
}

// foldAllLocked folds every entry into f and empties the log. Callers
// hold c.mu.
func (c *ProfileCache) foldAllLocked(f *fleetprior.Fold) {
	for key, res := range c.entries {
		f.Add(key, res)
	}
	c.added = c.added[:0]
	c.replaced = false
}

// Do returns the measurement for (j, d), measuring at most once: a
// cached result is returned immediately; if another goroutine is
// measuring the same key, Do waits and shares its result; otherwise Do
// measures via measure and publishes the result. hit reports whether the
// caller was spared the measurement; on a hit the savings are credited
// to tenant. Failed probes (infrastructure errors, no signal) are handed
// to waiting followers but never cached.
func (c *ProfileCache) Do(j workload.Job, d cloud.Deployment, tenant string, measure func() profiler.Result) (res profiler.Result, hit bool) {
	key := cacheKey(j, d)
	c.mu.Lock()
	if res, ok := c.entries[key]; ok {
		c.creditLocked(res, tenant)
		c.mu.Unlock()
		return res, true
	}
	if snap := c.snap.Load(); snap != nil {
		if res, ok := snap.entries[key]; ok {
			// Shared-tier hit: another shard paid for this measurement.
			// Promote it so later lookups (and the next snapshot merge)
			// see it locally.
			c.storeLocked(key, res)
			c.creditLocked(res, tenant)
			c.snapshotHits++
			c.mu.Unlock()
			return res, true
		}
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		c.mu.Lock()
		c.creditLocked(f.res, tenant)
		c.mu.Unlock()
		return f.res, true
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	f.res = measure()

	c.mu.Lock()
	if !f.res.Failed {
		c.storeLocked(key, f.res)
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.res, false
}

// creditLocked books one cache hit's savings. Callers hold c.mu.
func (c *ProfileCache) creditLocked(res profiler.Result, tenant string) {
	c.hits++
	c.savedUSD += res.Cost
	c.savedTime += res.Duration
	c.byTenant[tenant] += res.Cost
}

// Prime inserts a previously persisted measurement (journal recovery)
// without counting it as a hit or a miss. Existing entries win: a live
// measurement is never overwritten by a replayed one.
func (c *ProfileCache) Prime(j workload.Job, res profiler.Result) {
	key := cacheKey(j, res.Deployment)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok && !res.Failed {
		c.storeLocked(key, res)
	}
}

// Observations returns every cached measurement of job j — hot map and
// shared snapshot merged, hot entries winning — as warm-start
// observations, in deterministic (type, nodes) order. OOM probes
// (throughput 0) are included — they teach the searcher its memory
// bounds for free. Each tier is read through its per-job key index, so
// the cost follows j's own entries, not the cache's size.
func (c *ProfileCache) Observations(j workload.Job) []search.Observation {
	job := j.String()
	snap := c.snap.Load()
	c.mu.Lock()
	var obs []search.Observation
	for _, key := range c.byJob[job] {
		res := c.entries[key]
		obs = append(obs, search.Observation{Deployment: res.Deployment, Throughput: res.Throughput})
	}
	if snap != nil {
		for _, key := range snap.byJob[job] {
			if _, hot := c.entries[key]; !hot {
				res := snap.entries[key]
				obs = append(obs, search.Observation{Deployment: res.Deployment, Throughput: res.Throughput})
			}
		}
	}
	c.mu.Unlock()
	sort.Slice(obs, func(a, b int) bool {
		if obs[a].Deployment.Type.Name != obs[b].Deployment.Type.Name {
			return obs[a].Deployment.Type.Name < obs[b].Deployment.Type.Name
		}
		return obs[a].Deployment.Nodes < obs[b].Deployment.Nodes
	})
	return obs
}

// Export copies the hot map for a snapshot merge. The returned map is
// the caller's to own.
func (c *ProfileCache) Export() map[string]profiler.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]profiler.Result, len(c.entries))
	for k, v := range c.entries {
		out[k] = v
	}
	return out
}

// SetSnapshot installs the shared read-only tier consulted on hot-map
// misses. Pass nil to detach. Safe to call while probes are in flight.
func (c *ProfileCache) SetSnapshot(snap *CacheSnapshot) {
	c.snap.Store(snap)
}

// CacheStats is a point-in-time snapshot of the cache's effectiveness.
type CacheStats struct {
	Entries           int                `json:"entries"`
	SnapshotEntries   int                `json:"snapshot_entries,omitempty"`
	Hits              int                `json:"hits"`
	SnapshotHits      int                `json:"snapshot_hits,omitempty"`
	Misses            int                `json:"misses"`
	HitRate           float64            `json:"hit_rate"`
	SavedUSD          float64            `json:"saved_profile_usd"`
	SavedProfileHours float64            `json:"saved_profile_hours"`
	SavedByTenant     map[string]float64 `json:"saved_usd_by_tenant,omitempty"`
}

// Stats snapshots the cache counters.
func (c *ProfileCache) Stats() CacheStats {
	snap := c.snap.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries:           len(c.entries),
		SnapshotEntries:   snap.Len(),
		Hits:              c.hits,
		SnapshotHits:      c.snapshotHits,
		Misses:            c.misses,
		SavedUSD:          c.savedUSD,
		SavedProfileHours: c.savedTime.Hours(),
	}
	if total := c.hits + c.misses; total > 0 {
		st.HitRate = float64(c.hits) / float64(total)
	}
	if len(c.byTenant) > 0 {
		st.SavedByTenant = make(map[string]float64, len(c.byTenant))
		for t, v := range c.byTenant {
			st.SavedByTenant[t] = v
		}
	}
	return st
}
