package mlcdsys

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/fleetprior"
	"mlcd/internal/sim"
	"mlcd/internal/workload"
)

// A System builds its Space once and hands the same one to every caller
// and every search; the Space's encoding, too, is computed once.
func TestSystemSpaceBuiltOnce(t *testing.T) {
	sys := smallSystem(t, 1)
	sp := sys.Space()
	if sys.Space() != sp {
		t.Fatal("Space() returned a different Space on the second call")
	}
	enc := sp.Encoding()
	if _, err := sys.Deploy(workload.ResNetCIFAR10, Requirements{Budget: 100}); err != nil {
		t.Fatal(err)
	}
	if sys.Space() != sp || sp.Encoding() != enc {
		t.Fatal("a search replaced the System's Space or its encoding")
	}
}

// Several searches on one System run at once, all armed with one fleet
// prior, over the one shared Space: each reads the shared encoding while
// the others do, and the race detector sees no write to shared state.
func TestConcurrentSearchesShareSpace(t *testing.T) {
	sys := New(Config{
		Catalog: mustSubset(t, "c5.xlarge", "c5.4xlarge", "p3.2xlarge"),
		Limits:  cloud.SpaceLimits{MaxCPUNodes: 24, MaxGPUNodes: 8},
		Seed:    5,
	})
	sm := sim.New(1)
	var samples []fleetprior.Sample
	for _, donor := range []workload.Job{workload.AlexNetCIFAR10, workload.InceptionImageNet} {
		for i := 0; i < sys.Space().Len(); i += 3 {
			d := sys.Space().At(i)
			if thr := sm.Throughput(donor, d); thr > 0 {
				samples = append(samples, fleetprior.Sample{
					JobKey: donor.String(), Family: fleetprior.Family(donor),
					Type: d.Type.Name, Nodes: d.Nodes, Throughput: thr,
				})
			}
		}
	}
	prior := fleetprior.Build(samples)
	if !prior.HasFamily(fleetprior.Family(workload.ResNetCIFAR10)) {
		t.Fatal("the donors' prior does not cover the searched job's family")
	}
	reqs := []Requirements{{Budget: 100}, {Budget: 60}, {Deadline: 30 * time.Hour}, {}}
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Requirements) {
			defer wg.Done()
			_, errs[i] = sys.DeployCtx(context.Background(), workload.ResNetCIFAR10, req, DeployOptions{FleetPrior: prior})
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrNoSatisfyingDeployment) {
			t.Errorf("search %d (%+v): %v", i, reqs[i], err)
		}
	}
}
