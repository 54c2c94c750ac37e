package shardplane

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mlcd/internal/cloud"
	"mlcd/internal/faultfs"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/profiler"
	"mlcd/internal/sched"
	"mlcd/internal/workload"
)

// hold is a profiler middleware that wedges every measurement until
// release, so admitted searches stay resident at their first probe.
// started signals that at least one measurement has arrived.
type hold struct {
	gate    chan struct{}
	once    sync.Once
	started chan struct{}
}

func newHold() *hold {
	return &hold{gate: make(chan struct{}), started: make(chan struct{}, 1)}
}

func (h *hold) middleware(inner profiler.Profiler) profiler.Profiler {
	return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
		select {
		case h.started <- struct{}{}:
		default:
		}
		<-h.gate
		return inner.Profile(j, d)
	})
}

func (h *hold) release() { h.once.Do(func() { close(h.gate) }) }

// crash stops p the way a killed daemon leaves its journals: running
// searches are aborted with their journal claim kept, queued jobs stay
// owed, and the held probes are released only after every journal is
// closed, so nothing they measure is journaled.
func crash(p *Plane, h *hold) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = p.Shutdown(ctx)
	h.release()
	p.Close()
}

// counting is a profiler middleware that records every real measurement
// by deployment.
type counting struct {
	mu       sync.Mutex
	measured map[string]int
	n        atomic.Int64
}

func newCounting() *counting { return &counting{measured: make(map[string]int)} }

func (c *counting) middleware(inner profiler.Profiler) profiler.Profiler {
	return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
		c.n.Add(1)
		c.mu.Lock()
		c.measured[fmt.Sprintf("%s|%d", d.Type.Name, d.Nodes)]++
		c.mu.Unlock()
		return inner.Profile(j, d)
	})
}

// corruptFirstSegment rewrites the first segment of one shard's journal
// as an undecodable line followed by a valid record: mid-file
// corruption, which replay refuses (a torn final line alone would be
// tolerated).
func corruptFirstSegment(tb testing.TB, shardDir string) {
	tb.Helper()
	segs, err := filepath.Glob(filepath.Join(shardDir, "seg-*.jnl"))
	if err != nil || len(segs) == 0 {
		tb.Fatalf("no segment under %s (%v)", shardDir, err)
	}
	if err := os.WriteFile(segs[0], []byte("{\"type\":\"sub\n{\"type\":\"health\"}\n"), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// copyTree copies a plane's journal tree — shard-N directories of
// segment and snapshot files — from src on fsys to dst on the real
// filesystem.
func copyTree(tb testing.TB, fsys faultfs.FS, src, dst string) {
	tb.Helper()
	shards, err := fsys.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, shard := range shards {
		names, err := fsys.ReadDir(filepath.Join(src, shard))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dst, shard), 0o755); err != nil {
			tb.Fatal(err)
		}
		for _, name := range names {
			b, err := fsys.ReadFile(filepath.Join(src, shard, name))
			if err != nil {
				tb.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, shard, name), b, 0o644); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// submitN submits n jobs of one workload for tenant and returns their IDs.
func submitN(t *testing.T, p *Plane, name, tenant string, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		j, err := p.Submit(name, tenant, mlcdsys.Requirements{Budget: float64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	return ids
}

// TestFailedStartRunsNoRecoveredJob: when one shard cannot be recovered,
// New fails — and the shards that did recover must not have run any of
// their recovered backlog on the way out. Every recovered job stays owed
// in its journal for the next, repaired, start.
func TestFailedStartRunsNoRecoveredJob(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plane")
	h := newHold()
	a, err := New(newTestSystem(t), Config{
		Shards: 2, Workers: 1, MergeEvery: -1, HealthEvery: -1,
		JournalDir: dir, ProfilerMiddleware: h.middleware,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitN(t, a, "resnet-cifar10", tenantOnShard(t, a.Ring(), 0), 4)
	<-h.started // shard 0's first search is wedged mid-probe
	crash(a, h)

	corruptFirstSegment(t, filepath.Join(dir, "shard-1"))
	c := newCounting()
	b, err := New(newTestSystem(t), Config{
		Shards: 2, Workers: 1, MergeEvery: -1, HealthEvery: -1,
		JournalDir: dir, ProfilerMiddleware: c.middleware,
	})
	if err == nil {
		b.Close()
		t.Fatal("New over a corrupt shard journal succeeded")
	}
	if !strings.Contains(err.Error(), "building shard 1") {
		t.Fatalf("New = %v, want it to name shard 1", err)
	}
	if n := c.n.Load(); n != 0 {
		t.Errorf("%d probes ran during a failed start", n)
	}
	st, _, err := sched.ReplaySegmented(filepath.Join(dir, "shard-0"))
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string]bool)
	for _, sub := range st.Subs {
		if sub.Status == "" {
			live[sub.ID] = true
		}
	}
	for _, id := range ids {
		if !live[id] {
			t.Errorf("job %s is no longer owed in shard 0's journal after a failed start", id)
		}
	}
}

// TestRecoveredSearchesStartAfterMerge: a search recovered on one shard
// must warm-start from what every shard's journal holds. The plane
// publishes the merged cache snapshot before any shard starts a worker,
// so the recovered shard-0 search re-measures none of the deployments
// shard 1 paid for before the crash.
func TestRecoveredSearchesStartAfterMerge(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plane")
	cfg := Config{Shards: 2, Workers: 1, MergeEvery: -1, HealthEvery: -1, JournalDir: dir}

	a, err := New(newTestSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := submitN(t, a, "resnet-cifar10", tenantOnShard(t, a.Ring(), 1), 1)
	awaitStatus(t, a, done[0], sched.StatusDone)
	a.Close()

	h := newHold()
	cfg.ProfilerMiddleware = h.middleware
	a, err = New(newTestSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	held := submitN(t, a, "resnet-cifar10", tenantOnShard(t, a.Ring(), 0), 1)
	<-h.started
	crash(a, h)

	journaled, _, err := sched.ReplaySegmented(filepath.Join(dir, "shard-1"))
	if err != nil {
		t.Fatal(err)
	}
	paidFor := make(map[string]bool)
	for _, p := range journaled.Probes {
		paidFor[fmt.Sprintf("%s|%d", p.Observation.Type, p.Observation.Nodes)] = true
	}
	if len(paidFor) == 0 {
		t.Fatal("shard 1 journaled no probes")
	}

	c := newCounting()
	cfg.ProfilerMiddleware = c.middleware
	b, err := New(newTestSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	awaitStatus(t, b, held[0], sched.StatusDone)

	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.measured {
		if paidFor[key] {
			t.Errorf("recovered search re-measured %s, which shard 1 journaled before the crash", key)
		}
	}
}

// TestConcurrentRecoveryMatchesJournal restarts a crashed 4-shard plane
// five times over identical copies of its journal tree. Every shard
// recovers on its own goroutine, so each restart must still rebuild
// each shard exactly from its own directory: the same jobs in journal
// order, owed jobs queued or running, terminal jobs with their
// journaled status and error, and the same next ID every time.
func TestConcurrentRecoveryMatchesJournal(t *testing.T) {
	const shards = 4
	pristine := filepath.Join(t.TempDir(), "pristine")
	cfg := Config{Shards: shards, Workers: 1, MergeEvery: -1, HealthEvery: -1, JournalDir: pristine}

	// One finished search per shard (a different workload, so the held
	// searches below get no warm start from it); then held searches,
	// cancelled queued jobs, and jobs a later restart fails.
	a, err := New(newTestSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]string, shards)
	for i := range tenants {
		tenants[i] = tenantOnShard(t, a.Ring(), i)
		done := submitN(t, a, "alexnet-cifar10", tenants[i], 1)
		awaitStatus(t, a, done[0], sched.StatusDone)
	}
	a.Close()

	h := newHold()
	cfg.ProfilerMiddleware = h.middleware
	a, err = New(newTestSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tenants {
		ids := submitN(t, a, "resnet-cifar10", tenants[i], 3+i)
		if _, err := a.Cancel(ids[len(ids)-1]); err != nil {
			t.Fatal(err)
		}
		submitN(t, a, "charrnn-text", tenants[i], 1)
	}
	crash(a, h)

	// A restart whose menu lacks charrnn-text fails those jobs with an
	// error the journal keeps.
	h = newHold()
	cfg.Jobs, cfg.ProfilerMiddleware = sched.DefaultMenu(), h.middleware
	delete(cfg.Jobs, "charrnn-text")
	if a, err = New(newTestSystem(t), cfg); err != nil {
		t.Fatal(err)
	}
	crash(a, h)
	cfg.Jobs = nil

	var firstIDs []string
	for round := 0; round < 5; round++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("round-%d", round))
		copyTree(t, faultfs.OS{}, pristine, dir)
		want := make([]sched.JournalState, shards)
		for i := range want {
			if want[i], _, err = sched.ReplaySegmented(filepath.Join(dir, fmt.Sprintf("shard-%d", i))); err != nil {
				t.Fatal(err)
			}
		}

		h := newHold()
		cfg.JournalDir, cfg.ProfilerMiddleware = dir, h.middleware
		p, err := New(newTestSystem(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var next []string
		failed := 0
		for i := 0; i < shards; i++ {
			got := p.Shard(i).List("")
			if len(got) != len(want[i].Subs) {
				t.Fatalf("round %d shard %d: %d jobs, journal holds %d", round, i, len(got), len(want[i].Subs))
			}
			for k, sub := range want[i].Subs {
				j := got[k]
				switch {
				case j.ID != sub.ID || j.Tenant != sub.Tenant || j.Name != sub.Job:
					t.Errorf("round %d shard %d job %d = %s/%s/%s, journal %s/%s/%s",
						round, i, k, j.ID, j.Tenant, j.Name, sub.ID, sub.Tenant, sub.Job)
				case sub.Status == "" && j.Status != sched.StatusQueued && j.Status != sched.StatusRunning:
					t.Errorf("round %d: owed job %s recovered as %s", round, j.ID, j.Status)
				case sub.Status != "" && (j.Status != sub.Status || j.Err != sub.Error):
					t.Errorf("round %d: job %s recovered as %s %q, journal %s %q",
						round, j.ID, j.Status, j.Err, sub.Status, sub.Error)
				}
				if sub.Status == sched.StatusFailed && sub.Error != "" {
					failed++
				}
			}
			ids := submitN(t, p, "resnet-cifar10", tenants[i], 1)
			if w := fmt.Sprintf("s%d-job-%04d", i, want[i].MaxID+1); ids[0] != w {
				t.Errorf("round %d shard %d minted %s, want %s", round, i, ids[0], w)
			}
			next = append(next, ids[0])
		}
		crash(p, h)
		if failed != shards {
			t.Fatalf("round %d: journals hold %d failed jobs with an error, want %d", round, failed, shards)
		}
		if round == 0 {
			firstIDs = next
		} else if fmt.Sprint(next) != fmt.Sprint(firstIDs) {
			t.Errorf("round %d minted %v, round 0 minted %v", round, next, firstIDs)
		}
	}
}

// BenchmarkPlaneRecover times New of a journaled 2-shard plane over
// 12000 owed submissions per shard — the set-up of a restarted daemon:
// replay, absorb, the first merge, and the start. Searches are held at
// their first probe. The backlog is written once to an in-memory
// filesystem (no per-record disk flush) and copied out to real files;
// each iteration then starts over a fresh copy of those files and a
// collected heap, both outside the timer.
func BenchmarkPlaneRecover(b *testing.B) {
	const perShard = 12000
	cfg := Config{
		Shards: 2, Workers: 2, QueueSize: perShard + 64,
		MergeEvery: -1, HealthEvery: -1, FleetPrior: true,
	}
	sys := mlcdsys.New(mlcdsys.Config{Seed: 1})

	mem := faultfs.NewMem()
	h := newHold()
	cfg.JournalDir, cfg.FS, cfg.ProfilerMiddleware = "backlog", mem, h.middleware
	p, err := New(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for shard := 0; shard < cfg.Shards; shard++ {
		tenant := tenantOnShard(b, p.Ring(), shard)
		for i := 0; i < perShard; i++ {
			if _, err := p.Submit("resnet-cifar10", tenant, mlcdsys.Requirements{Budget: float64(50 + i%100)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	crash(p, h)
	root := b.TempDir()
	pristine := filepath.Join(root, "pristine")
	copyTree(b, mem, "backlog", pristine)
	cfg.FS = nil

	dir := filepath.Join(root, "run")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		copyTree(b, faultfs.OS{}, pristine, dir)
		h := newHold()
		cfg.JournalDir, cfg.ProfilerMiddleware = dir, h.middleware
		runtime.GC()
		b.StartTimer()
		p, err := New(sys, cfg)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		crash(p, h)
		b.StartTimer()
	}
}
