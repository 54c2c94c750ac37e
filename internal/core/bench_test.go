package core

import (
	"math"
	"testing"

	"mlcd/internal/bo"
	"mlcd/internal/cloud"
	"mlcd/internal/profiler"
	"mlcd/internal/rngtape"
	"mlcd/internal/search"
	"mlcd/internal/sim"
	"mlcd/internal/workload"
)

// benchState builds a mid-search state: the single-type scale-out space
// of Figs. 9–11, conditioned on a handful of probes, poised to score the
// remaining candidates.
func benchState(b testing.TB) *state {
	b.Helper()
	sm := sim.New(1)
	space := cloud.NewSpace(cloud.DefaultCatalog(), cloud.DefaultLimits).
		Filter(func(d cloud.Deployment) bool { return d.Type.Name == "c5.4xlarge" })
	opts := Options{Seed: 42}.withDefaults()
	st := &state{
		job: workload.ResNetCIFAR10, scen: search.FastestUnlimited,
		space: space, prof: profiler.NewSimProfiler(sm),
		opts:       opts,
		rng:        rngtape.New(opts.Seed),
		profiled:   make(map[string]bool),
		lowProbed:  make(map[string]float64),
		priorBound: make(map[string]int),
	}
	st.surr = bo.NewMultiFidelitySurrogate(bo.NewSurrogate(opts.Kernel.Clone(), st.rng))
	for _, n := range []int{1, 4, 8, 16, 24} {
		st.probe(cloud.Deployment{Type: space.Types()[0], Nodes: n}, 1, 0, "init")
	}
	if st.surr.Len() == 0 {
		b.Fatal("bench state has no observations")
	}
	return st
}

// benchFleetState is benchState on the full menu space (every catalog
// type, ~2,000 deployments) with a fleet meta-prior armed as Search arms
// it, conditioned on probes of two types: the sweep scores the whole
// space through the prior column.
func benchFleetState(b testing.TB) *state {
	b.Helper()
	sm := sim.New(1)
	space := cloud.NewSpace(cloud.DefaultCatalog(), cloud.DefaultLimits)
	opts := Options{Seed: 42}.withDefaults()
	st := &state{
		job: workload.ResNetCIFAR10, scen: search.FastestUnlimited,
		space: space, prof: profiler.NewSimProfiler(sm),
		opts:       opts,
		rng:        rngtape.New(opts.Seed),
		profiled:   make(map[string]bool),
		lowProbed:  make(map[string]float64),
		priorBound: make(map[string]int),
	}
	st.surr = bo.NewMultiFidelitySurrogate(bo.NewSurrogate(opts.Kernel.Clone(), st.rng))
	if st.armFleetPrior(soaFleetPrior(soaCase{job: st.job, space: space}, sm)) == nil {
		b.Fatal("the fleet prior does not cover the bench job")
	}
	cat := cloud.DefaultCatalog()
	for _, name := range []string{"c5.4xlarge", "p3.2xlarge"} {
		for _, n := range []int{1, 4, 8} {
			st.probe(cloud.Deployment{Type: cat.MustLookup(name), Nodes: n}, 1, 0, "init")
		}
	}
	if st.surr.Len() == 0 {
		b.Fatal("bench state has no observations")
	}
	return st
}

// BenchmarkNextCandidate times one acquisition sweep: the mask filter,
// one batched GP posterior over every surviving deployment, and the
// CI/TEI filters plus cost-penalized argmax — the per-step scoring cost
// of the search. ReportAllocs pins the arena contract in the bench
// output: steady state must read 0 allocs/op.
func BenchmarkNextCandidate(b *testing.B) {
	st := benchState(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		cand, score, ok := st.nextCandidate()
		if !ok {
			b.Fatal("no candidate")
		}
		sink += score.score + float64(cand.Nodes)
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN score")
	}
}

// BenchmarkNextCandidateFleetPrior is BenchmarkNextCandidate on the
// full menu space with a fleet prior armed: the steady-state sweep reads
// each candidate's prior mean from the search's column instead of
// looking it up in the prior.
func BenchmarkNextCandidateFleetPrior(b *testing.B) {
	st := benchFleetState(b)
	if _, _, ok := st.nextCandidate(); !ok {
		b.Fatal("no candidate")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		cand, score, ok := st.nextCandidate()
		if !ok {
			b.Fatal("no candidate")
		}
		sink += score.score + float64(cand.Nodes)
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN score")
	}
}

// TestNextCandidateZeroAlloc pins the arena-pooled sweep at zero
// steady-state allocations: after the first sweep has built the flat
// view, filled the prior column and sized every buffer (candidate set
// sizes only shrink from there), repeated sweeps must not touch the heap
// at all — without a prior on one type's scale-out, and with a fleet
// prior armed on the full menu space.
func TestNextCandidateZeroAlloc(t *testing.T) {
	for name, st := range map[string]*state{"plain": benchState(t), "fleet-prior": benchFleetState(t)} {
		// Warm-up: builds the candidate view, the arena buffers, and the GP
		// posterior scratch at their high-water sizes.
		if _, _, ok := st.nextCandidate(); !ok {
			t.Fatalf("%s: warm-up sweep found no candidate", name)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, ok := st.nextCandidate(); !ok {
				t.Fatalf("%s: no candidate", name)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state acquisition sweep allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}
