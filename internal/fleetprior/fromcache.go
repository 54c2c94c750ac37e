package fleetprior

import (
	"mlcd/internal/profiler"
)

// BuildFromCache aggregates a profile-cache export (or snapshot merge)
// into a Prior: a Fold fed every entry once. Entries are keyed
// "jobString|deploymentKey" and carry the measured result; resolve
// attributes each job key to a model family. Build's internal sort makes
// the result independent of map iteration order.
func BuildFromCache(entries map[string]profiler.Result, resolve Resolver) *Prior {
	f := NewFold(resolve)
	for key, res := range entries {
		f.Add(key, res)
	}
	return f.Prior()
}

// Fold is BuildFromCache kept up to date as a cache grows: Add takes the
// cache's entries as they are stored, each key once, and Prior publishes
// what BuildFromCache over every entry added so far returns, byte for
// byte, rebuilding only the families that gained a sample since the last
// Prior.
//
// The prior splits by family exactly. A donor's centering offset uses
// only its own samples, a job key resolves to one family, cells are
// keyed by family, and Jobs and Samples are counts — so Build over every
// sample is the union of Build over each family's samples, down to the
// floating-point operation order (Build's sort keeps a donor's samples
// contiguous and in the same order either way).
//
// A Fold is not safe for concurrent use. The Priors it returns are never
// modified afterwards: a later Prior shares the unchanged families'
// curve maps with earlier ones, and replaces, never edits, a rebuilt one.
type Fold struct {
	resolve  Resolver
	families map[string]*familyFold
	last     *Prior // the latest Prior; nil until the first, or once stale
}

// familyFold is one family's samples and the family's last Build.
type familyFold struct {
	samples []Sample
	built   *Prior
	dirty   bool // samples grew since built
}

// NewFold returns an empty fold attributing entries with resolve.
func NewFold(resolve Resolver) *Fold {
	return &Fold{resolve: resolve, families: make(map[string]*familyFold)}
}

// Add folds in one cache entry; adding a key twice counts it twice, as
// no cache holds it. Entries that teach the prior nothing are skipped:
// malformed keys, unknown jobs, failed probes, OOMs (throughput ≤ 0) and
// sub-sampled (fidelity < 1) readings — only a confirmed full
// measurement is fleet-grade evidence.
func (f *Fold) Add(key string, res profiler.Result) {
	jobKey, _, ok := ParseCacheKey(key)
	if !ok || res.Failed || res.Throughput <= 0 {
		return
	}
	if res.Fidelity > 0 && res.Fidelity < 1 {
		return
	}
	family, ok := f.resolve(jobKey)
	if !ok {
		return
	}
	ff := f.families[family]
	if ff == nil {
		ff = &familyFold{}
		f.families[family] = ff
	}
	ff.samples = append(ff.samples, Sample{
		JobKey:     jobKey,
		Family:     family,
		Type:       res.Deployment.Type.Name,
		Nodes:      res.Deployment.Nodes,
		Throughput: res.Throughput,
	})
	ff.dirty = true
	f.last = nil
}

// Prior returns the prior over every entry added so far, rebuilding
// each family that grew since the last call with Build and reusing the
// rest. With nothing added since, it returns the previous Prior itself.
func (f *Fold) Prior() *Prior {
	if f.last != nil {
		return f.last
	}
	p := &Prior{Curves: make(map[string]map[string]Curve)}
	for _, ff := range f.families {
		if ff.dirty {
			ff.built = Build(ff.samples)
			ff.dirty = false
		}
		for family, byType := range ff.built.Curves {
			p.Curves[family] = byType
		}
		p.Jobs += ff.built.Jobs
		p.Samples += ff.built.Samples
	}
	f.last = p
	return p
}
