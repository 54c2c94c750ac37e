package optim

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// The loops below are the optimizer before it became a stepper, kept as
// the reference the stepper and the lockstep MultiStart are pinned to
// (TestMultiStartMatchesLoop, TestNelderMeadMatchesLoop).

// loopVertex is the loop's simplex corner: a point and its value.
type loopVertex struct {
	x []float64
	f float64
}

// sortLoop is sortSimplex's insertion sort on the loop's vertices: the
// same comparisons and swaps, so the same permutation, ties included.
func sortLoop(s []loopVertex) {
	if len(s) > 12 {
		panic("optim: sortLoop covers simplexes of up to 12 vertices")
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].f < s[j-1].f; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// nelderMeadLoop is NelderMead as one loop that calls f in place, the
// form the stepper replaced: minimizes f within bounds starting from x0.
// Points proposed outside the box are clamped to it, which keeps the
// method valid for the log-space hyperparameter boxes used by the GP.
//
// The GP hyperparameter refit evaluates this optimizer's objective
// hundreds of times per observation, so candidate points are carried in
// a small recycled buffer pool instead of fresh allocations; every
// floating-point operation and comparison is unchanged, making the
// trajectory identical to the allocating implementation.
func nelderMeadLoop(f Objective, x0 []float64, bounds Bounds, opts NelderMeadOpts) Result {
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

	simplex := make([]loopVertex, dim+1)
	start := bounds.Clamp(append([]float64(nil), x0...))
	simplex[0] = loopVertex{x: start, f: eval(start)}
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
		simplex[i+1] = loopVertex{x: x, f: eval(x)}
	}

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
		simplex[dim] = loopVertex{x, fx}
	}

	for iter := 0; iter < opts.MaxIter; iter++ {
		sortLoop(simplex)
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
					simplex[i] = loopVertex{xi, eval(xi)}
				}
			}
		}
	}

	sortLoop(simplex)
	return Result{X: simplex[0].x, F: simplex[0].f, Evals: evals}
}

// multiStartLoop is MultiStart before lockstep groups, each start one
// nelderMeadLoop: it minimizes from x0 and from starts−1 uniform
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
func multiStartLoop(newObjective func() Objective, x0 []float64, bounds Bounds, starts int, rng *rand.Rand, opts NelderMeadOpts) Result {
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
				results[s] = nelderMeadLoop(f, points[s], bounds, opts)
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
