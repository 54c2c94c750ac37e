package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"mlcd/internal/chaos"
	"mlcd/internal/cloud"
	"mlcd/internal/mlcdsys"
)

// wallClockProvider hides the wrapped provider's cloud.ClockAdvancer
// (and every other optional interface) behind the plain Provider
// surface, so the execution layer's backoff sleeps on a real timer —
// the only way a worker can be caught genuinely mid-backoff.
type wallClockProvider struct{ cloud.Provider }

// TestShutdownNoLeakMidChaosBackoff wedges a worker *inside* the retry
// path: a chaos plan refuses every launch, the first retry backs off
// 12–18s on the wall clock, and Shutdown fires while the worker is
// asleep in that backoff. The cancelled run context must abort the
// sleep immediately and every scheduler goroutine must exit — a backoff
// that ignores cancellation would pin the worker (and the daemon's
// shutdown) for the full backoff.
func TestShutdownNoLeakMidChaosBackoff(t *testing.T) {
	baseline := goroutineCount()

	cat, err := cloud.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	inner := cloud.NewSimProvider(cloud.DefaultQuota, time.Minute)
	storm := chaos.Wrap(inner, chaos.Plan{
		Name:   "total-storm",
		Faults: []chaos.Fault{{Kind: chaos.KindLaunchError, Rate: 1, DelaySeconds: 1}},
	}, 1, nil)
	sys := mlcdsys.New(mlcdsys.Config{
		Catalog:  cat,
		Limits:   cloud.SpaceLimits{MaxCPUNodes: 40, MaxGPUNodes: 1},
		Provider: wallClockProvider{storm},
		Seed:     1,
	})
	s, err := New(sys, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100}); err != nil {
		t.Fatal(err)
	}

	// The first refused launch puts the worker into its first backoff,
	// which outlasts the shutdown grace below many times over.
	deadline := time.Now().Add(10 * time.Second)
	for storm.Injected(chaos.KindLaunchError) == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("chaos plan never refused a launch")
		}
		time.Sleep(time.Millisecond)
	}

	// Shutdown's grace period expires with the worker mid-backoff; the
	// run context is cancelled and the sleep must return at once.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	awaitGoroutines(t, baseline)
}
