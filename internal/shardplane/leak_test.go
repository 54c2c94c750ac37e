package shardplane

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/profiler"
	"mlcd/internal/workload"
)

// goroutineCount reports the current goroutine count after giving the
// runtime a moment to retire goroutines that have already returned.
func goroutineCount() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// awaitGoroutines polls until the goroutine count drops back to at most
// want, failing with a full stack dump if it never does: the dump names
// the leaked goroutine outright.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if goroutineCount() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines never returned to %d (now %d); stacks:\n%s",
		want, goroutineCount(), buf[:n])
}

// TestPlaneCloseNoGoroutineLeak: a graceful drain of a multi-shard
// plane — shard workers on every shard, plus the snapshot-merge loop —
// must leave no goroutines behind. The merge cadence is deliberately
// tight so the loop is demonstrably running when Close lands.
func TestPlaneCloseNoGoroutineLeak(t *testing.T) {
	baseline := goroutineCount()
	p, err := New(newTestSystem(t), Config{Shards: 3, Workers: 2, MergeEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t0 := tenantOnShard(t, p.Ring(), 0)
	if _, err := p.Submit("resnet-cifar10", t0, mlcdsys.Requirements{Budget: 100}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent: a double close must not panic or hang
	awaitGoroutines(t, baseline)
}

// TestPlaneShutdownNoGoroutineLeak wedges a probe on one shard past the
// drain deadline, forcing Shutdown down its abort path, and verifies the
// error surfaces AND that every plane goroutine — all shards' workers
// and the merge loop — exits once the probe un-wedges.
func TestPlaneShutdownNoGoroutineLeak(t *testing.T) {
	baseline := goroutineCount()

	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	p, err := New(newTestSystem(t), Config{
		Shards: 2, Workers: 1, MergeEvery: time.Millisecond,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				started <- struct{}{}
				<-gate
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := tenantOnShard(t, p.Ring(), 0)
	if _, err := p.Submit("resnet-cifar10", t0, mlcdsys.Requirements{Budget: 100}); err != nil {
		t.Fatal(err)
	}
	<-started // shard 0's worker is now wedged mid-probe

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}

	close(gate)
	for {
		select {
		case <-started: // later probes of the same drain, if any
			continue
		default:
		}
		break
	}
	awaitGoroutines(t, baseline)
}

// TestNewFailureNoGoroutineLeak: a plane start that fails because two
// shard journals are corrupt names the lowest failing shard every time,
// whichever shard finishes recovering first, and leaves nothing running
// — the shards that did recover are closed along with their journals'
// compaction loops, and none of them ever started a worker.
func TestNewFailureNoGoroutineLeak(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plane")
	cfg := Config{Shards: 4, Workers: 2, JournalDir: dir}
	h := newHold()
	cfg.ProfilerMiddleware = h.middleware
	p, err := New(newTestSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Shards; i++ {
		submitN(t, p, "resnet-cifar10", tenantOnShard(t, p.Ring(), i), 3)
	}
	crash(p, h)
	corruptFirstSegment(t, filepath.Join(dir, "shard-1"))
	corruptFirstSegment(t, filepath.Join(dir, "shard-3"))

	baseline := goroutineCount()
	c := newCounting()
	cfg.ProfilerMiddleware = c.middleware
	for run := 0; run < 20; run++ {
		p, err := New(newTestSystem(t), cfg)
		if err == nil {
			p.Close()
			t.Fatalf("run %d: New over two corrupt shard journals succeeded", run)
		}
		if !strings.Contains(err.Error(), "building shard 1:") {
			t.Fatalf("run %d: New = %v, want it to name shard 1", run, err)
		}
	}
	if n := c.n.Load(); n != 0 {
		t.Errorf("%d probes ran during failed starts", n)
	}
	awaitGoroutines(t, baseline)
}

// awaitCompactLoops polls until exactly want journal compaction loops
// are running in the process, and reports how many last ran. A loop
// goroutine shows in the stacks once it has started.
func awaitCompactLoops(want int) int {
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		got := strings.Count(string(buf[:n]), ".(*SegmentedJournal).compactLoop(")
		if got == want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPlaneShardsCompactByDefault: every shard of a journaled plane runs
// its journal's compaction loop with no option set, and Close stops
// them all.
func TestPlaneShardsCompactByDefault(t *testing.T) {
	before := awaitCompactLoops(0)
	p, err := New(newTestSystem(t), Config{
		Shards: 3, Workers: 1, JournalDir: t.TempDir(), MergeEvery: -1, HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := awaitCompactLoops(before+3) - before; got != 3 {
		p.Close()
		t.Fatalf("%d compaction loops for 3 journaled shards", got)
	}
	p.Close()
	if got := awaitCompactLoops(before) - before; got != 0 {
		t.Fatalf("%d compaction loops still running after Close", got)
	}
}
