package sched

import (
	"sort"
	"testing"

	"mlcd/internal/cloud"
	"mlcd/internal/fleetprior"
	"mlcd/internal/profiler"
	"mlcd/internal/workload"
)

// The two benchmarks below are a matched pair gated by `benchgate
// compare -pair` (see scripts/bench_compare.sh): the work a lone
// scheduler does under its lock when a job finishes, on a 1,000-entry
// cache into which the job has just stored 30 probes. The baseline is
// the full rebuild the scheduler used to run (copy the cache, build the
// prior from every entry); the candidate is the fold it runs now (fold
// the 30 stores in, rebuild the one family they touch). Both publish the
// same prior bytes.

// rebuildBench is a 1,000-entry cache over the default menu, and the 30
// probes one job of the menu is about to store.
type rebuildBench struct {
	cache   *ProfileCache
	resolve fleetprior.Resolver
	job     workload.Job
	probes  []cloud.Deployment
}

func newRebuildBench() *rebuildBench {
	menu := DefaultMenu()
	jobs := make([]workload.Job, 0, len(menu))
	for _, j := range menu {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].String() < jobs[b].String() })
	types := cloud.DefaultCatalog().Types()
	rb := &rebuildBench{cache: NewProfileCache(), resolve: fleetprior.MenuResolver(jobs), job: jobs[0]}
	for i := 0; rb.cache.Stats().Entries < 1000; i++ {
		j := jobs[i%len(jobs)]
		d := cloud.Deployment{Type: types[(i/len(jobs))%len(types)], Nodes: 1 + i/(len(jobs)*len(types))}
		rb.cache.Prime(j, profiler.Result{Deployment: d, Throughput: float64(10 + i%97)})
	}
	for n := 1; n <= 30; n++ {
		rb.probes = append(rb.probes, cloud.Deployment{Type: types[0], Nodes: 100 + n})
	}
	return rb
}

// storeProbes stores the job's 30 probes, as its search's misses do.
func (rb *rebuildBench) storeProbes() {
	for i, d := range rb.probes {
		rb.cache.Do(rb.job, d, "acme", func() profiler.Result {
			return profiler.Result{Deployment: d, Throughput: float64(100 + i)}
		})
	}
}

var rebuildSink *fleetprior.Prior

// BenchmarkRebuildFleetPriorFull is the full rebuild a finished job used
// to cost: Export plus BuildFromCache over every entry. It exists only
// as the baseline for BenchmarkRebuildFleetPrior.
func BenchmarkRebuildFleetPriorFull(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rb := newRebuildBench()
		rb.storeProbes()
		b.StartTimer()
		rebuildSink = fleetprior.BuildFromCache(rb.cache.Export(), rb.resolve)
	}
}

// BenchmarkRebuildFleetPrior is the scheduler's rebuild: the fold takes
// the 30 stored keys and rebuilds the one family they touch.
func BenchmarkRebuildFleetPrior(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rb := newRebuildBench()
		fold := fleetprior.NewFold(rb.resolve)
		if !rb.cache.startFold(fold) {
			b.Fatal("a fresh cache refused the fold")
		}
		fold.Prior()
		rb.storeProbes()
		b.StartTimer()
		if !rb.cache.foldStored(fold) {
			b.Fatal("the probes replaced an entry")
		}
		rebuildSink = fold.Prior()
	}
}
