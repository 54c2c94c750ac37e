package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/fleetprior"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

// refObservations is Observations as it was before the per-job key
// index: a scan of every key in both tiers for the job's prefix, with a
// seen set sized to the whole hot map. The index must return exactly
// what it returns.
func refObservations(c *ProfileCache, j workload.Job) []search.Observation {
	prefix := j.String() + "|"
	snap := c.snap.Load()
	c.mu.Lock()
	var obs []search.Observation
	seen := make(map[string]bool, len(c.entries))
	for key, res := range c.entries {
		if len(key) > len(prefix) && key[:len(prefix)] == prefix {
			seen[key] = true
			obs = append(obs, search.Observation{Deployment: res.Deployment, Throughput: res.Throughput})
		}
	}
	c.mu.Unlock()
	if snap != nil {
		for key, res := range snap.entries {
			if len(key) > len(prefix) && key[:len(prefix)] == prefix && !seen[key] {
				obs = append(obs, search.Observation{Deployment: res.Deployment, Throughput: res.Throughput})
			}
		}
	}
	sort.Slice(obs, func(a, b int) bool {
		if obs[a].Deployment.Type.Name != obs[b].Deployment.Type.Name {
			return obs[a].Deployment.Type.Name < obs[b].Deployment.Type.Name
		}
		return obs[a].Deployment.Nodes < obs[b].Deployment.Nodes
	})
	return obs
}

// awaitTerminal waits for a job to end, whatever its status.
func awaitTerminal(t *testing.T, s *Scheduler, id string) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if j, ok := s.Get(id); ok && j.Status.Terminal() {
			return
		}
	}
	t.Fatalf("job %s never finished", id)
}

// randomResult draws a probe outcome: mostly successes, some OOMs
// (throughput 0, cached) and some failures (never cached).
func randomResult(rng *rand.Rand, d cloud.Deployment) profiler.Result {
	res := profiler.Result{Deployment: d, Throughput: 1 + rng.Float64()*100, Cost: rng.Float64()}
	switch rng.Intn(6) {
	case 0:
		res.Throughput = 0
	case 1:
		res.Failed = true
	}
	return res
}

// TestObservationsIndexMatchesScan fills caches at random through every
// store path — measured misses, snapshot promotions and journal primes —
// with a snapshot tier that overlaps the hot map, OOM and failed probes
// included, and checks that every job's warm start reads the same
// observations, in the same order, as the full scan.
func TestObservationsIndexMatchesScan(t *testing.T) {
	jobs := []workload.Job{workload.ResNetCIFAR10, workload.AlexNetCIFAR10, workload.CharRNNText, workload.BERTTF}
	types := cloud.DefaultCatalog().Types()[:3]
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dep := func() cloud.Deployment {
			return cloud.Deployment{Type: types[rng.Intn(len(types))], Nodes: 1 + rng.Intn(12)}
		}
		snapEntries := make(map[string]profiler.Result)
		for i := rng.Intn(60); i > 0; i-- {
			j := jobs[rng.Intn(len(jobs))]
			d := dep()
			if res := randomResult(rng, d); !res.Failed {
				snapEntries[cacheKey(j, d)] = res
			}
		}
		c := NewProfileCache()
		if rng.Intn(4) > 0 {
			c.SetSnapshot(NewCacheSnapshot(snapEntries))
		}
		for i := rng.Intn(120); i > 0; i-- {
			j := jobs[rng.Intn(len(jobs))]
			d := dep()
			res := randomResult(rng, d)
			if rng.Intn(3) == 0 {
				c.Prime(j, res)
			} else {
				c.Do(j, d, "t", func() profiler.Result { return res })
			}
		}
		for _, j := range jobs {
			got, want := c.Observations(j), refObservations(c, j)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: index read %v, scan read %v", seed, j, got, want)
			}
		}
	}
}

// TestFleetPriorFoldMatchesFullRebuild: a lone scheduler's published
// prior is the prior a full rebuild over its cache gives — after Recover
// (replayed probes) and after every finished job — with no search
// running between the job's end and the check.
func TestFleetPriorFoldMatchesFullRebuild(t *testing.T) {
	dir := t.TempDir()
	menu := DefaultMenu()
	jobs := make([]workload.Job, 0, len(menu))
	for _, j := range menu {
		jobs = append(jobs, j)
	}
	resolve := fleetprior.MenuResolver(jobs)
	check := func(s *Scheduler, when string) {
		t.Helper()
		got, err := s.FleetPrior().Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fleetprior.BuildFromCache(s.Cache().Export(), resolve).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: published prior\n%s\nwant the full rebuild\n%s", when, got, want)
		}
	}
	submits := []struct {
		job string
		req float64
	}{
		{"resnet-cifar10", 100}, {"charrnn-text", 80}, {"alexnet-cifar10", 100},
		{"resnet-cifar10", 60}, {"charrnn-text", 120},
	}
	for life := 0; life < 2; life++ {
		s, err := New(newTestSystem(t), Config{JournalDir: dir, FleetPrior: true})
		if err != nil {
			t.Fatal(err)
		}
		check(s, fmt.Sprintf("life %d, after Recover", life))
		for i, sub := range submits[life*2 : life*2+3] {
			j, err := s.Submit(sub.job, "acme", mlcdsys.Requirements{Budget: sub.req})
			if err != nil {
				t.Fatal(err)
			}
			awaitTerminal(t, s, j.ID)
			check(s, fmt.Sprintf("life %d, after job %d (%s)", life, i, sub.job))
		}
		s.Close()
	}
}

// A shard — a scheduler with FleetPrior off — keeps no stored-key log
// and times no rebuild, however many jobs it runs.
func TestShardRecordsNoStores(t *testing.T) {
	s, err := New(newTestSystem(t), Config{Workers: 2, QueueSize: 32, ShardLabel: "0"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 12; i++ {
		j, err := s.Submit([]string{"resnet-cifar10", "charrnn-text", "alexnet-cifar10"}[i%3], fmt.Sprintf("t%d", i), mlcdsys.Requirements{Budget: float64(60 + 10*i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		awaitTerminal(t, s, id)
	}
	s.Close()
	c := s.Cache()
	c.mu.Lock()
	recording, logged := c.recording, len(c.added)
	c.mu.Unlock()
	if recording || logged != 0 || c.Stats().Entries == 0 {
		t.Fatalf("shard cache: recording=%t with %d logged keys over %d entries, want no log", recording, logged, c.Stats().Entries)
	}
	if n := s.m.fleetRebuild.Count(); n != 0 {
		t.Fatalf("a shard timed %d prior rebuilds, want none", n)
	}
}

// The rebuild histogram: one sample when Recover folds the replayed
// cache, then one per job that ends done or failed.
func TestFleetPriorRebuildTimed(t *testing.T) {
	s, err := New(newTestSystem(t), Config{FleetPrior: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.m.fleetRebuild
	if n := h.Count(); n != 1 {
		t.Fatalf("after Recover: %d rebuild samples, want 1", n)
	}
	for i, budget := range []float64{100, 80, 120} {
		j, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		awaitTerminal(t, s, j.ID)
		if n := h.Count(); n != uint64(i+2) {
			t.Fatalf("after job %d: %d rebuild samples, want %d", i, n, i+2)
		}
	}
}

// One cache feeds at most one fold: a second scheduler with FleetPrior
// on the same cache is refused, since the two would split its log.
func TestFleetPriorSharedCacheRefused(t *testing.T) {
	c := NewProfileCache()
	a, err := New(newTestSystem(t), Config{Cache: c, FleetPrior: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if b, err := New(newTestSystem(t), Config{Cache: c, FleetPrior: true}); err == nil {
		b.Close()
		t.Fatal("a second fleet-prior scheduler on one cache was accepted")
	}
	b, err := New(newTestSystem(t), Config{Cache: c})
	if err != nil {
		t.Fatalf("a scheduler without the prior must still share the cache: %v", err)
	}
	b.Close()
}

// A measurement landing on a key a snapshot promotion filled meanwhile
// replaces a cache entry. The fold cannot take a sample back, so the
// next rebuild refolds the whole cache; the published prior still equals
// the full rebuild, replaced value included.
func TestFleetPriorRefoldsReplacedEntry(t *testing.T) {
	s, err := New(newTestSystem(t), Config{FleetPrior: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.Cache()
	j := workload.ResNetCIFAR10
	d := testDeployment(t, 4)
	release := make(chan struct{})
	measured := make(chan struct{})
	go func() {
		defer close(measured)
		c.Do(j, d, "a", func() profiler.Result {
			<-release
			return profiler.Result{Deployment: d, Throughput: 40}
		})
	}()
	// Wait until the measurement is in flight, then let another shard's
	// reading of the same key arrive through the snapshot and be promoted.
	for {
		c.mu.Lock()
		_, inflight := c.inflight[cacheKey(j, d)]
		c.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.SetSnapshot(NewCacheSnapshot(map[string]profiler.Result{cacheKey(j, d): {Deployment: d, Throughput: 30}}))
	if res, hit := c.Do(j, d, "b", nil); !hit || res.Throughput != 30 {
		t.Fatalf("snapshot promotion: %+v hit=%t", res, hit)
	}
	s.RebuildFleetPrior() // folds the promoted reading
	close(release)
	<-measured // the measurement replaces it
	s.RebuildFleetPrior()

	got := mustEncodePrior(t, s.FleetPrior())
	want := mustEncodePrior(t, fleetprior.BuildFromCache(c.Export(), s.resolve))
	if got != want {
		t.Fatalf("after a replaced entry the prior is\n%s\nwant the full rebuild\n%s", got, want)
	}
	if res := c.Export()[cacheKey(j, d)]; res.Throughput != 40 {
		t.Fatalf("the cache holds %+v, want the measurement", res)
	}
}

func mustEncodePrior(t *testing.T, p *fleetprior.Prior) string {
	t.Helper()
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
