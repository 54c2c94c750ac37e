package shardplane

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/fleetprior"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
	"mlcd/internal/sched"
	"mlcd/internal/workload"
)

func newTestSystem(t *testing.T) *mlcdsys.System {
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

// profilerFunc adapts a function to profiler.Profiler.
type profilerFunc func(workload.Job, cloud.Deployment) profiler.Result

func (f profilerFunc) Profile(j workload.Job, d cloud.Deployment) profiler.Result { return f(j, d) }

func awaitStatus(t *testing.T, p *Plane, id string, want sched.Status) sched.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := p.Get(id); ok && j.Status == want {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := p.Get(id)
	t.Fatalf("job %s never reached %s (now %s, err %q)", id, want, j.Status, j.Err)
	return sched.Job{}
}

// tenantOnShard finds a tenant name r maps to shard want.
func tenantOnShard(t testing.TB, r *Ring, want int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		if r.Shard(tenant) == want {
			return tenant
		}
	}
	t.Fatalf("no tenant maps to shard %d", want)
	return ""
}

func TestPlaneRoutingAndLifecycle(t *testing.T) {
	p, err := New(newTestSystem(t), Config{Shards: 2, Workers: 1, MergeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	t0 := tenantOnShard(t, p.Ring(), 0)
	t1 := tenantOnShard(t, p.Ring(), 1)

	j0, err := p.Submit("resnet-cifar10", t0, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := p.Submit("resnet-cifar10", t1, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	// IDs carry their shard: a tenant on shard 1 gets s1-job-NNNN, and
	// the ID routes back to the right shard without any global index.
	if !strings.HasPrefix(j0.ID, "s0-job-") || !strings.HasPrefix(j1.ID, "s1-job-") {
		t.Fatalf("IDs = %s / %s, want shard-prefixed", j0.ID, j1.ID)
	}
	d0 := awaitStatus(t, p, j0.ID, sched.StatusDone)
	d1 := awaitStatus(t, p, j1.ID, sched.StatusDone)
	if d0.Report == nil || d1.Report == nil {
		t.Fatalf("missing reports: %+v / %+v", d0.Report, d1.Report)
	}

	if got := len(p.List("")); got != 2 {
		t.Fatalf("List = %d jobs, want 2", got)
	}
	st := p.Stats()
	if st.Shards != 2 || len(st.PerShard) != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Aggregate.JobsByStatus[sched.StatusDone] != 2 {
		t.Fatalf("aggregate done = %d, want 2", st.Aggregate.JobsByStatus[sched.StatusDone])
	}
	if st.PerShard[0].JobsByStatus[sched.StatusDone] != 1 || st.PerShard[1].JobsByStatus[sched.StatusDone] != 1 {
		t.Fatalf("per-shard done counts = %+v", st.PerShard)
	}

	// Unknown and unroutable IDs are not found, not misrouted.
	if _, ok := p.Get("s9-job-0001"); ok {
		t.Fatal("out-of-range shard ID resolved")
	}
	if _, ok := p.Get("job-0001"); ok {
		t.Fatal("unprefixed ID resolved")
	}
	if _, err := p.Cancel("nope"); err != sched.ErrNotFound {
		t.Fatalf("Cancel(nope) = %v, want ErrNotFound", err)
	}
}

// TestPlaneSnapshotMergeSharesMeasurements: a measurement paid for by a
// tenant on shard 0 reaches a shard-1 tenant running the same workload
// through the merged snapshot — the cross-shard half of the paper's
// "profiling dollars are paid once".
func TestPlaneSnapshotMergeSharesMeasurements(t *testing.T) {
	var mu sync.Mutex
	measured := make(map[string]int)
	p, err := New(newTestSystem(t), Config{
		Shards: 2, Workers: 1, MergeEvery: -1,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				mu.Lock()
				measured[fmt.Sprintf("%s|%d", d.Type.Name, d.Nodes)]++
				mu.Unlock()
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	t0 := tenantOnShard(t, p.Ring(), 0)
	j0, err := p.Submit("resnet-cifar10", t0, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, p, j0.ID, sched.StatusDone)
	p.MergeNow()

	t1 := tenantOnShard(t, p.Ring(), 1)
	j1, err := p.Submit("resnet-cifar10", t1, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, p, j1.ID, sched.StatusDone)

	mu.Lock()
	defer mu.Unlock()
	for key, n := range measured {
		if n > 1 {
			t.Errorf("deployment %s measured %d times across shards", key, n)
		}
	}
	// The sharing happened through the merged tier: the snapshot holds
	// shard 0's measurements and shard 1's search warm-started from them
	// (via Observations) instead of re-probing — hence the ≤1 counts.
	st := p.Stats()
	if st.SnapshotEntries == 0 {
		t.Errorf("merged snapshot is empty: %+v", st)
	}
}

// TestCrossShardWarmStartSurvivesReshard is the acceptance criterion:
// a plane restarted with MORE shards remaps some tenants; a remapped
// tenant's new shard has neither its journal nor its hot cache, yet the
// tenant's cached observations must still warm-start its next search —
// via journal replay on the old shard plus the merged snapshot.
func TestCrossShardWarmStartSurvivesReshard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plane")

	// A tenant that moves when the ring grows 2 → 3 shards (consistent
	// hashing guarantees it moves TO the new shard 2).
	ring2, ring3 := NewRing(2), NewRing(3)
	tenant := ""
	for i := 0; i < 100000; i++ {
		cand := fmt.Sprintf("tenant-%d", i)
		if ring2.Shard(cand) != ring3.Shard(cand) {
			tenant = cand
			break
		}
	}
	if tenant == "" {
		t.Fatal("no tenant remaps when growing 2 → 3 shards")
	}

	a, err := New(newTestSystem(t), Config{Shards: 2, Workers: 1, MergeEvery: -1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := a.Submit("resnet-cifar10", tenant, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, a, j1.ID, sched.StatusDone)
	a.Close()

	journaled, _, err := sched.ReplaySegmented(filepath.Join(dir, fmt.Sprintf("shard-%d", ring2.Shard(tenant))))
	if err != nil {
		t.Fatal(err)
	}
	if len(journaled.Probes) == 0 {
		t.Fatal("first run journaled no probes")
	}
	paidFor := make(map[string]bool)
	for _, p := range journaled.Probes {
		paidFor[fmt.Sprintf("%s|%d", p.Observation.Type, p.Observation.Nodes)] = true
	}

	// Restart with 3 shards over the same journal tree. New() replays
	// every shard directory and publishes the first merged snapshot
	// before accepting submissions.
	var mu sync.Mutex
	remeasured := make(map[string]bool)
	b, err := New(newTestSystem(t), Config{
		Shards: 3, Workers: 1, MergeEvery: -1, JournalDir: dir,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				mu.Lock()
				remeasured[fmt.Sprintf("%s|%d", d.Type.Name, d.Nodes)] = true
				mu.Unlock()
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	newShard := b.ShardFor(tenant)
	if newShard == ring2.Shard(tenant) {
		t.Fatalf("tenant %q did not move on reshard", tenant)
	}
	j2, err := b.Submit("resnet-cifar10", tenant, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(j2.ID, fmt.Sprintf("s%d-", newShard)) {
		t.Fatalf("job %s not on the tenant's new shard %d", j2.ID, newShard)
	}
	done := awaitStatus(t, b, j2.ID, sched.StatusDone)
	if done.Report == nil || !done.Report.Satisfied {
		t.Fatalf("post-reshard report = %+v", done.Report)
	}

	mu.Lock()
	defer mu.Unlock()
	for key := range remeasured {
		if paidFor[key] {
			t.Errorf("deployment %s re-measured after reshard — warm start did not survive", key)
		}
	}
	// The path the measurements took: old shard's journal → replay →
	// merged snapshot → new shard's warm start.
	if st := b.Stats(); st.SnapshotEntries < len(paidFor) {
		t.Errorf("snapshot holds %d entries, want at least the %d journaled measurements",
			st.SnapshotEntries, len(paidFor))
	}
}

// TestMergedFleetPriorSurvivesShardJobs: in a plane the merge is the
// fleet prior's only publisher. A job that finishes on one shard must
// leave the merged, fleet-wide prior in place — on that shard and in
// Plane.FleetPrior, which GET /v1/fleet serves — rather than replace it
// with a prior rebuilt from that shard's own cache until the next merge.
func TestMergedFleetPriorSurvivesShardJobs(t *testing.T) {
	sys := newTestSystem(t)
	p, err := New(sys, Config{Shards: 2, Workers: 1, MergeEvery: -1, FleetPrior: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	t0 := tenantOnShard(t, p.Ring(), 0)
	t1 := tenantOnShard(t, p.Ring(), 1)
	for _, sub := range []struct{ job, tenant string }{
		{"resnet-cifar10", t0},
		{"charrnn-text", t1},
	} {
		j, err := p.Submit(sub.job, sub.tenant, mlcdsys.Requirements{Budget: 100})
		if err != nil {
			t.Fatal(err)
		}
		awaitStatus(t, p, j.ID, sched.StatusDone)
	}
	p.MergeNow()
	merged := p.FleetPrior()
	if st := merged.Stats(); st.Families != 2 || st.Keys != 2 {
		t.Fatalf("merged prior = %+v, want both shards' families (2) and keys (2)", st)
	}

	j, err := p.Submit("alexnet-cifar10", t0, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, p, j.ID, sched.StatusDone)
	for name, got := range map[string]*fleetprior.Prior{
		"plane":   p.FleetPrior(),
		"shard 0": p.Shard(0).FleetPrior(),
		"shard 1": p.Shard(1).FleetPrior(),
	} {
		if got != merged {
			t.Errorf("%s prior = %+v after a shard-0 job, want the merged %+v", name, got.Stats(), merged.Stats())
		}
	}
	// Nor does a shard rebuild a prior of its own in the background: its
	// rebuild histogram stays empty through every job.
	for i := 0; i < 2; i++ {
		h := sys.Metrics().Histogram("mlcd_sched_fleet_prior_rebuild_seconds", "", nil, obs.L{Key: "shard", Value: strconv.Itoa(i)})
		if n := h.Count(); n != 0 {
			t.Errorf("shard %d timed %d prior rebuilds, want none", i, n)
		}
	}
}
