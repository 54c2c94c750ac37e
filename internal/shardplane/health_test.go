package shardplane

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mlcd/internal/faultfs"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/sched"
)

// faultPlane builds a journaled 2-shard plane over an in-memory
// fault-injecting filesystem, with both background loops disabled so
// tests drive merge and health rounds deterministically.
func faultPlane(t *testing.T) (*Plane, *faultfs.Injector) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.NewMem(), rand.New(rand.NewSource(1)))
	p, err := New(newTestSystem(t), Config{
		Shards: 2, Workers: 1,
		JournalDir:  "plane",
		FS:          inj,
		MergeEvery:  -1,
		HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, inj
}

// TestShardDegradedAndReadmission is the degraded-mode end-to-end: one
// shard's journal turns persistently unwritable, health probes flip it
// to degraded, its existing tenants are refused with ErrShardDegraded
// while NEW tenants keep being admitted on the healthy shard, /v1/health
// material reports it, and the shard re-admits itself once writes
// succeed again. Run under -race in CI.
func TestShardDegradedAndReadmission(t *testing.T) {
	p, inj := faultPlane(t)

	t1 := tenantOnShard(t, p.Ring(), 1)
	j, err := p.Submit("resnet-cifar10", t1, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, p, j.ID, sched.StatusDone)

	// Healthy baseline: a probe round changes nothing.
	p.CheckHealth()
	if h := p.Health(); h.State != "healthy" || h.Healthy != 2 {
		t.Fatalf("baseline health = %+v", h)
	}

	// Shard 1's disk dies: every fsync under its journal dir fails.
	inj.SetPlan([]faultfs.Fault{
		{Op: faultfs.OpSync, Path: "shard-1", Mode: faultfs.ModeSyncFail, Nth: 1, Persist: true},
	})
	for i := 0; i < DefaultDegradedAfter; i++ {
		if p.Degraded(1) {
			t.Fatalf("degraded after only %d probe failures", i)
		}
		p.CheckHealth()
	}
	if !p.Degraded(1) || p.Degraded(0) {
		t.Fatalf("want shard 1 degraded only: %v %v", p.Degraded(0), p.Degraded(1))
	}
	h := p.Health()
	if h.State != "degraded" || h.Degraded != 1 || h.Shards[1].State != "degraded" ||
		h.Shards[1].ErrStreak < DefaultDegradedAfter || h.Shards[1].LastError == "" {
		t.Fatalf("health = %+v", h)
	}

	// The existing shard-1 tenant is refused — placing it elsewhere would
	// fork its journal history — with a retryable, typed error.
	if _, err := p.Submit("resnet-cifar10", t1, mlcdsys.Requirements{Budget: 100}); !errors.Is(err, ErrShardDegraded) {
		t.Fatalf("existing tenant on degraded shard: err = %v, want ErrShardDegraded", err)
	}
	if p.rejected.Value() != 1 {
		t.Fatalf("rejected counter = %v, want 1", p.rejected.Value())
	}

	// A NEW tenant whose home is the degraded shard is placed on the
	// healthy one — the plane keeps admitting business.
	fresh := ""
	for i := 0; i < 100000; i++ {
		cand := fmt.Sprintf("fresh-%d", i)
		if p.Ring().Shard(cand) == 1 {
			fresh = cand
			break
		}
	}
	if fresh == "" {
		t.Fatal("no fresh tenant maps to shard 1")
	}
	jr, err := p.Submit("resnet-cifar10", fresh, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatalf("new tenant during degradation: %v", err)
	}
	if p.rerouted.Value() != 1 {
		t.Fatalf("rerouted counter = %v, want 1", p.rerouted.Value())
	}
	awaitStatus(t, p, jr.ID, sched.StatusDone)
	if got := p.ShardFor(fresh); got != 1 {
		t.Fatalf("test premise broken: fresh tenant homes on shard %d", got)
	}

	// Tenants homed on the healthy shard never notice.
	t0 := tenantOnShard(t, p.Ring(), 0)
	j0, err := p.Submit("resnet-cifar10", t0, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatalf("healthy-shard tenant: %v", err)
	}
	awaitStatus(t, p, j0.ID, sched.StatusDone)

	// Storage recovers; the next successful probe re-admits the shard.
	inj.Heal()
	p.CheckHealth()
	if p.Degraded(1) {
		t.Fatal("shard 1 not re-admitted after successful probe")
	}
	if h := p.Health(); h.State != "healthy" || h.Shards[1].LastError != "" {
		t.Fatalf("post-recovery health = %+v", h)
	}
	if p.readmitTotal[1].Value() != 1 || p.degradedTotal[1].Value() != 1 {
		t.Fatalf("transition counters = %v/%v, want 1/1",
			p.degradedTotal[1].Value(), p.readmitTotal[1].Value())
	}
	// The refused tenant's home shard serves it again.
	j2, err := p.Submit("resnet-cifar10", t1, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, p, j2.ID, sched.StatusDone)
}

// TestAllShardsDegradedRefuses: with no healthy shard left, even new
// tenants are refused (the API maps this to a plane-wide 503).
func TestAllShardsDegradedRefuses(t *testing.T) {
	p, inj := faultPlane(t)
	inj.SetPlan([]faultfs.Fault{
		{Op: faultfs.OpSync, Path: "shard-", Mode: faultfs.ModeSyncFail, Nth: 1, Persist: true},
	})
	for i := 0; i < DefaultDegradedAfter; i++ {
		p.CheckHealth()
	}
	if h := p.Health(); h.State != "down" || h.Healthy != 0 {
		t.Fatalf("health = %+v", h)
	}
	if _, err := p.Submit("resnet-cifar10", "anyone", mlcdsys.Requirements{Budget: 100}); !errors.Is(err, ErrShardDegraded) {
		t.Fatalf("err = %v, want ErrShardDegraded", err)
	}
}

// TestRingShardExcluding pins the fallback-placement contract.
func TestRingShardExcluding(t *testing.T) {
	r := NewRing(3)
	none := func(int) bool { return false }
	for _, tenant := range []string{"a", "b", "c", "acme", ""} {
		if got, want := r.ShardExcluding(tenant, none), r.Shard(tenant); got != want {
			t.Fatalf("no exclusions: ShardExcluding(%q) = %d, want %d", tenant, got, want)
		}
	}
	// Excluding the home shard reroutes deterministically to another.
	tenant := "acme"
	home := r.Shard(tenant)
	alt := r.ShardExcluding(tenant, func(s int) bool { return s == home })
	if alt == home || alt < 0 {
		t.Fatalf("alt = %d (home %d)", alt, home)
	}
	if again := r.ShardExcluding(tenant, func(s int) bool { return s == home }); again != alt {
		t.Fatalf("fallback not deterministic: %d vs %d", again, alt)
	}
	// All shards excluded → -1.
	if got := r.ShardExcluding(tenant, func(int) bool { return true }); got != -1 {
		t.Fatalf("all excluded: got %d, want -1", got)
	}
}

// TestRestartShardRecovers is the process-level crash drill: kill and
// rebuild one shard, verify its journal replay restores terminal
// statuses, the shared snapshot tier stays warm, and the plane reports
// a recovery time.
func TestRestartShardRecovers(t *testing.T) {
	p, err := New(newTestSystem(t), Config{
		Shards: 2, Workers: 1,
		JournalDir:  t.TempDir(),
		MergeEvery:  -1,
		HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	t1 := tenantOnShard(t, p.Ring(), 1)
	j, err := p.Submit("resnet-cifar10", t1, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, p, j.ID, sched.StatusDone)
	p.MergeNow()
	warm := p.Stats().SnapshotEntries
	if warm == 0 {
		t.Fatal("no snapshot entries before restart")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d, err := p.RestartShard(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("recovery duration = %v", d)
	}

	// Replay restored the finished job with its terminal status — not
	// re-enqueued, not forgotten.
	got, ok := p.Get(j.ID)
	if !ok || got.Status != sched.StatusDone {
		t.Fatalf("after restart: %+v ok=%v", got, ok)
	}
	// The shared cache tier is still warm: the restarted shard's replayed
	// probes merged back in.
	if after := p.Stats().SnapshotEntries; after < warm {
		t.Fatalf("snapshot shrank across restart: %d -> %d", warm, after)
	}
	// The restarted shard accepts new work.
	j2, err := p.Submit("resnet-cifar10", t1, mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, p, j2.ID, sched.StatusDone)
}
