// Package optim provides the derivative-free optimizer used to fit
// Gaussian-process hyperparameters by maximizing the log marginal
// likelihood: a bounded Nelder–Mead simplex, run from several starts in
// parallel by MultiStart.
package optim

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Objective is a function to be minimized.
type Objective func(x []float64) float64

// Bounds is a per-dimension box constraint.
type Bounds struct {
	Lo, Hi []float64
}

// Clamp projects x onto the box in place and returns it.
func (b Bounds) Clamp(x []float64) []float64 {
	for i := range x {
		if x[i] < b.Lo[i] {
			x[i] = b.Lo[i]
		}
		if x[i] > b.Hi[i] {
			x[i] = b.Hi[i]
		}
	}
	return x
}

// valid reports whether the bounds are well formed for dimension n.
func (b Bounds) valid(n int) bool {
	if len(b.Lo) != n || len(b.Hi) != n {
		return false
	}
	for i := range b.Lo {
		if !(b.Lo[i] <= b.Hi[i]) {
			return false
		}
	}
	return true
}

// Result is the outcome of an optimization run.
type Result struct {
	X     []float64
	F     float64
	Evals int
}

// NelderMeadOpts configures the simplex search.
type NelderMeadOpts struct {
	MaxIter int     // maximum iterations (default 200·dim)
	TolF    float64 // f-spread part of the stop test (default 1e-8)
	TolX    float64 // x-spread part of the stop test (default 1e-7)
	Scale   float64 // initial simplex edge as a fraction of box width (default 0.1)
}

func (o NelderMeadOpts) withDefaults(dim int) NelderMeadOpts {
	if o.MaxIter <= 0 {
		o.MaxIter = 200 * dim
	}
	if o.TolF <= 0 {
		o.TolF = 1e-8
	}
	if o.TolX <= 0 {
		o.TolX = 1e-7
	}
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	return o
}

// vertex is one simplex corner: a point and its objective value.
type vertex struct {
	x []float64
	f float64
}

// byF sorts simplex vertices by ascending objective value. A concrete
// sort.Interface avoids sort.Slice's per-call reflection in the
// optimizer's inner loop; both run the standard library's pdqsort, whose
// comparisons and swaps depend only on Less results, so the resulting
// vertex order is the same either way.
type byF []vertex

func (s byF) Len() int           { return len(s) }
func (s byF) Less(i, j int) bool { return s[i].f < s[j].f }
func (s byF) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// sortSimplex orders the simplex by ascending f. The optimizer sorts
// once per iteration, and sort.Sort's interface dispatch dominated the
// FitMLE profile, so small simplexes (dim+1 ≤ 12, i.e. every GP
// hyperparameter box in this repository) run an inlined insertion sort
// instead. The standard library's pdqsort delegates to the identical
// insertion sort below maxInsertion = 12 elements, so the resulting
// vertex permutation — including the order of equal-f ties — is exactly
// what sort.Sort produces; larger simplexes keep sort.Sort to preserve
// that equivalence.
func sortSimplex(s []vertex) {
	if len(s) > 12 {
		sort.Sort(byF(s))
		return
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].f < s[j-1].f; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// NelderMead minimizes f within bounds starting from x0.
// Points proposed outside the box are clamped to it, which keeps the
// method valid for the log-space hyperparameter boxes used by the GP.
//
// The GP hyperparameter refit evaluates this optimizer's objective
// hundreds of times per observation, so candidate points are carried in
// a small recycled buffer pool instead of fresh allocations; every
// floating-point operation and comparison is unchanged, making the
// trajectory identical to the allocating implementation.
func NelderMead(f Objective, x0 []float64, bounds Bounds, opts NelderMeadOpts) Result {
	dim := len(x0)
	if dim == 0 {
		panic("optim: empty start point")
	}
	if !bounds.valid(dim) {
		panic("optim: malformed bounds")
	}
	opts = opts.withDefaults(dim)

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}

	simplex := make([]vertex, dim+1)
	start := bounds.Clamp(append([]float64(nil), x0...))
	simplex[0] = vertex{x: start, f: eval(start)}
	for i := 0; i < dim; i++ {
		x := append([]float64(nil), start...)
		step := opts.Scale * (bounds.Hi[i] - bounds.Lo[i])
		if step == 0 {
			step = opts.Scale
		}
		x[i] += step
		if x[i] > bounds.Hi[i] {
			x[i] = start[i] - step
		}
		bounds.Clamp(x)
		simplex[i+1] = vertex{x: x, f: eval(x)}
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	centroid := make([]float64, dim)
	// pool recycles candidate-point buffers: a discarded candidate and
	// the evicted worst vertex both return here. At most three buffers
	// circulate, covering reflection/expansion/contraction of any
	// iteration without further allocation.
	var pool [][]float64
	grab := func() []float64 {
		if n := len(pool); n > 0 {
			x := pool[n-1]
			pool = pool[:n-1]
			return x
		}
		return make([]float64, dim)
	}
	// install replaces the worst vertex, recycling its buffer. Callers
	// must not touch worst.x afterwards.
	install := func(x []float64, fx float64) {
		pool = append(pool, simplex[dim].x)
		simplex[dim] = vertex{x, fx}
	}

	for iter := 0; iter < opts.MaxIter; iter++ {
		sortSimplex(simplex)
		if simplex[dim].f-simplex[0].f < opts.TolF {
			// A flat simplex can straddle a minimum (notably in 1-D), so
			// require the vertices to have collapsed in x as well.
			var spread float64
			for _, v := range simplex[1:] {
				for j, xv := range v.x {
					if d := math.Abs(xv - simplex[0].x[j]); d > spread {
						spread = d
					}
				}
			}
			if spread < opts.TolX {
				break
			}
		}
		// Centroid of all but the worst.
		for j := range centroid {
			centroid[j] = 0
		}
		for _, v := range simplex[:dim] {
			for j, xv := range v.x {
				centroid[j] += xv
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}
		worst := simplex[dim]

		mix := func(coef float64) []float64 {
			x := grab()
			for j := range x {
				x[j] = centroid[j] + coef*(centroid[j]-worst.x[j])
			}
			return bounds.Clamp(x)
		}

		refl := mix(alpha)
		fr := eval(refl)
		switch {
		case fr < simplex[0].f:
			exp := mix(gamma)
			fe := eval(exp)
			if fe < fr {
				install(exp, fe)
				pool = append(pool, refl)
			} else {
				install(refl, fr)
				pool = append(pool, exp)
			}
		case fr < simplex[dim-1].f:
			install(refl, fr)
		default:
			contr := mix(-rho)
			fc := eval(contr)
			if fc < worst.f {
				install(contr, fc)
				pool = append(pool, refl)
			} else {
				pool = append(pool, refl, contr)
				// Shrink toward the best vertex, overwriting each vertex
				// in place (x[j] depends only on its own old value and the
				// best vertex, so the update order cannot alias).
				for i := 1; i <= dim; i++ {
					xi := simplex[i].x
					for j := range xi {
						xi[j] = simplex[0].x[j] + sigma*(xi[j]-simplex[0].x[j])
					}
					bounds.Clamp(xi)
					simplex[i] = vertex{xi, eval(xi)}
				}
			}
		}
	}

	sortSimplex(simplex)
	return Result{X: simplex[0].x, F: simplex[0].f, Evals: evals}
}

// MultiStart minimizes with NelderMead from x0 and from starts−1 uniform
// random points inside the box, returning the best result; Evals sums
// every start's evaluations. rng must not be nil.
//
// Every start point is drawn from rng up front, in start order, before
// any simplex runs (NelderMead itself never touches rng). The starts then
// run on min(starts, GOMAXPROCS) goroutines, each calling newObjective
// once for an objective of its own, so objectives that mutate private
// state need no locking. Each start writes only its own result slot, and
// the winner is reduced in start order with a strict less-than. X, F,
// Evals and the state rng is left in are therefore identical at any
// GOMAXPROCS.
func MultiStart(newObjective func() Objective, x0 []float64, bounds Bounds, starts int, rng *rand.Rand, opts NelderMeadOpts) Result {
	if starts < 1 {
		starts = 1
	}
	points := make([][]float64, starts)
	points[0] = x0
	for s := 1; s < starts; s++ {
		x := make([]float64, len(x0))
		for i := range x {
			x[i] = bounds.Lo[i] + rng.Float64()*(bounds.Hi[i]-bounds.Lo[i])
		}
		points[s] = x
	}
	results := make([]Result, starts)
	workers := min(starts, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			f := newObjective()
			for {
				s := int(next.Add(1)) - 1
				if s >= starts {
					return
				}
				results[s] = NelderMead(f, points[s], bounds, opts)
			}
		}()
	}
	wg.Wait()
	best := results[0]
	for _, r := range results[1:] {
		best.Evals += r.Evals
		if r.F < best.F {
			best.X, best.F = r.X, r.F
		}
	}
	return best
}
