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

// TestNextCandidateZeroAlloc pins the arena-pooled sweep at zero
// steady-state allocations: after the first sweep has built the flat
// view and sized every buffer (candidate set sizes only shrink from
// there), repeated sweeps must not touch the heap at all.
func TestNextCandidateZeroAlloc(t *testing.T) {
	st := benchState(t)
	// Warm-up: builds the candidate view, the arena buffers, and the GP
	// posterior scratch at their high-water sizes.
	if _, _, ok := st.nextCandidate(); !ok {
		t.Fatal("warm-up sweep found no candidate")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, ok := st.nextCandidate(); !ok {
			t.Fatal("no candidate")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state acquisition sweep allocates %.1f objects/op, want 0", allocs)
	}
}
