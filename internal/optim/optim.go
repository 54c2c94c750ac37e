// Package optim provides the derivative-free optimizer used to fit
// Gaussian-process hyperparameters by maximizing the log marginal
// likelihood: a bounded Nelder–Mead simplex, written as a stepper that
// asks for one point's value at a time, and MultiStart, which runs it
// from several starts, stepping groups of starts in lockstep so that one
// call evaluates a group's pending points together, and running the
// groups in parallel.
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

// vertex is one simplex corner: the index of its point among the
// search's buffers, and the point's objective value. It holds no
// pointer, so sorting and replacing vertices write none: a pointer
// write costs a write barrier while the collector runs, and a search
// moves vertices on every evaluation.
type vertex struct {
	p int
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

// The simplex coefficients.
const (
	alpha = 1.0 // reflection
	gamma = 2.0 // expansion
	rho   = 0.5 // contraction
	sigma = 0.5 // shrink
)

// phase is where a stepper's search stands: which point it waits for.
type phase uint8

const (
	building    phase = iota // vertex i of the initial simplex
	reflecting               // the reflected point
	expanding                // the expanded point, the reflected one held
	contracting              // the contracted point, the reflected one held
	shrinking                // vertex i shrunk toward the best
	stopped
)

// spares is how many point buffers a search keeps beside its simplex:
// an iteration holds at most two candidates at once (the reflected
// point and its expansion or contraction).
const spares = 2

// stepper is one bounded Nelder–Mead search run an evaluation at a
// time: pending returns the point whose value the search waits for
// (nil once it has stopped) and tell hands that value in. Between two
// tells it runs exactly the operations, comparisons and sorts of the
// simplex loop (the package tests keep that loop as the reference), so
// a search's points, its result and its evaluation count do not depend
// on whether its values arrive one by one or beside other searches'.
// Its points live in dim+1+spares buffers allocated at reset; vertices
// and candidates refer to them by index.
type stepper struct {
	bounds   Bounds
	opts     NelderMeadOpts
	pts      [][]float64 // point buffers; pts[0] starts as the clamped start
	simplex  []vertex
	centroid []float64
	// pool holds the spare buffers' indices: a discarded candidate and
	// the evicted worst vertex both return here.
	pool  [spares]int
	npool int
	x     int     // index of the point awaiting its value
	refl  int     // index of the reflected point, held while its successor is out
	fr    float64 // refl's value
	phase phase
	i     int // the vertex being built or shrunk
	iter  int
	evals int
}

// reset starts a search from x0, clamped to bounds.
func (s *stepper) reset(x0 []float64, bounds Bounds, opts NelderMeadOpts) {
	dim := len(x0)
	if dim == 0 {
		panic("optim: empty start point")
	}
	if !bounds.valid(dim) {
		panic("optim: malformed bounds")
	}
	buf := make([]float64, (dim+1+spares)*dim)
	pts := make([][]float64, dim+1+spares)
	for i := range pts {
		pts[i] = buf[i*dim : (i+1)*dim : (i+1)*dim]
	}
	*s = stepper{
		bounds:   bounds,
		opts:     opts.withDefaults(dim),
		pts:      pts,
		simplex:  make([]vertex, dim+1),
		centroid: make([]float64, dim),
		npool:    spares,
	}
	for k := range s.pool {
		s.pool[k] = dim + 1 + k
	}
	copy(pts[0], x0)
	bounds.Clamp(pts[0])
}

// pending returns the point whose value the search waits for, or nil
// once it has stopped.
func (s *stepper) pending() []float64 {
	if s.phase == stopped {
		return nil
	}
	return s.pts[s.x]
}

// tell records the value of the pending point and moves the search on
// to its next point.
func (s *stepper) tell(f float64) {
	s.evals++
	dim := len(s.centroid)
	switch s.phase {
	case building:
		s.simplex[s.i] = vertex{s.x, f}
		if s.i++; s.i <= dim {
			s.x = s.edge(s.i - 1)
			return
		}
		s.head()
	case reflecting:
		switch {
		case f < s.simplex[0].f:
			s.refl, s.fr = s.x, f
			s.x, s.phase = s.mix(gamma), expanding
		case f < s.simplex[dim-1].f:
			s.install(s.x, f)
			s.next()
		default:
			s.refl, s.fr = s.x, f
			s.x, s.phase = s.mix(-rho), contracting
		}
	case expanding:
		if f < s.fr {
			s.install(s.x, f)
			s.release(s.refl)
		} else {
			s.install(s.refl, s.fr)
			s.release(s.x)
		}
		s.next()
	case contracting:
		if f < s.simplex[dim].f {
			s.install(s.x, f)
			s.release(s.refl)
			s.next()
			return
		}
		s.release(s.refl)
		s.release(s.x)
		s.i, s.phase = 1, shrinking
		s.x = s.shrink(1)
	case shrinking:
		s.simplex[s.i] = vertex{s.x, f}
		if s.i++; s.i <= dim {
			s.x = s.shrink(s.i)
			return
		}
		s.next()
	default:
		panic("optim: tell after the search stopped")
	}
}

// edge writes vertex i+1 of the initial simplex into buffer i+1 and
// returns its index: the start stepped along dimension i by Scale of
// the box width, backwards when that leaves the box.
func (s *stepper) edge(i int) int {
	start, x := s.pts[0], s.pts[i+1]
	copy(x, start)
	step := s.opts.Scale * (s.bounds.Hi[i] - s.bounds.Lo[i])
	if step == 0 {
		step = s.opts.Scale
	}
	x[i] += step
	if x[i] > s.bounds.Hi[i] {
		x[i] = start[i] - step
	}
	s.bounds.Clamp(x)
	return i + 1
}

// next ends an iteration.
func (s *stepper) next() {
	s.iter++
	s.head()
}

// head opens an iteration: it stops the search at the iteration cap or
// once the sorted simplex is flat in f and collapsed in x, and otherwise
// reflects the worst vertex through the centroid of the rest.
func (s *stepper) head() {
	simplex, centroid, pts := s.simplex, s.centroid, s.pts
	dim := len(centroid)
	if s.iter >= s.opts.MaxIter {
		s.stop()
		return
	}
	sortSimplex(simplex)
	if simplex[dim].f-simplex[0].f < s.opts.TolF {
		// A flat simplex can straddle a minimum (notably in 1-D), so
		// require the vertices to have collapsed in x as well.
		var spread float64
		best := pts[simplex[0].p]
		for _, v := range simplex[1:] {
			for j, xv := range pts[v.p] {
				if d := math.Abs(xv - best[j]); d > spread {
					spread = d
				}
			}
		}
		if spread < s.opts.TolX {
			s.stop()
			return
		}
	}
	// Centroid of all but the worst.
	for j := range centroid {
		centroid[j] = 0
	}
	for _, v := range simplex[:dim] {
		for j, xv := range pts[v.p] {
			centroid[j] += xv
		}
	}
	for j := range centroid {
		centroid[j] /= float64(dim)
	}
	s.x, s.phase = s.mix(alpha), reflecting
}

func (s *stepper) stop() {
	sortSimplex(s.simplex)
	s.phase = stopped
}

// mix writes centroid + coef·(centroid − worst), clamped, into a spare
// buffer and returns its index.
func (s *stepper) mix(coef float64) int {
	s.npool--
	p := s.pool[s.npool]
	x, centroid := s.pts[p], s.centroid
	worst := s.pts[s.simplex[len(centroid)].p]
	for j := range x {
		x[j] = centroid[j] + coef*(centroid[j]-worst[j])
	}
	s.bounds.Clamp(x)
	return p
}

// release returns buffer p to the spares.
func (s *stepper) release(p int) {
	s.pool[s.npool] = p
	s.npool++
}

// install replaces the worst vertex, recycling its buffer.
func (s *stepper) install(p int, fx float64) {
	dim := len(s.centroid)
	s.release(s.simplex[dim].p)
	s.simplex[dim] = vertex{p, fx}
}

// shrink moves vertex i toward the best vertex in place (x[j] depends
// only on its own old value and the best vertex, so nothing aliases) and
// returns its buffer's index.
func (s *stepper) shrink(i int) int {
	p := s.simplex[i].p
	xi, best := s.pts[p], s.pts[s.simplex[0].p]
	for j := range xi {
		xi[j] = best[j] + sigma*(xi[j]-best[j])
	}
	s.bounds.Clamp(xi)
	return p
}

func (s *stepper) result() Result {
	return Result{X: s.pts[s.simplex[0].p], F: s.simplex[0].f, Evals: s.evals}
}

// NelderMead minimizes f within bounds starting from x0.
// Points proposed outside the box are clamped to it, which keeps the
// method valid for the log-space hyperparameter boxes used by the GP.
// It is one stepper fed one value at a time.
func NelderMead(f Objective, x0 []float64, bounds Bounds, opts NelderMeadOpts) Result {
	var s stepper
	s.reset(x0, bounds, opts)
	for x := s.pending(); x != nil; x = s.pending() {
		s.tell(f(x))
	}
	return s.result()
}

// BatchObjective evaluates up to MaxLanes points in one call, writing
// the value at xs[i] to fs[i]. Each value must depend on its own point
// only, never on which points share the call.
type BatchObjective func(xs [][]float64, fs []float64)

// MaxLanes is the most points one BatchObjective call receives.
const MaxLanes = 4

// MultiStart minimizes with Nelder–Mead from x0 and from starts−1
// uniform random points inside the box, returning the best result;
// Evals sums every start's evaluations. rng must not be nil.
//
// Every start point is drawn from rng up front, in start order, before
// any search runs (a search itself never touches rng). Consecutive
// starts form groups of group searches (clamped to 1…MaxLanes), which
// step in lockstep: each round hands every unfinished search's pending
// point to one BatchObjective call. The groups run on
// min(groups, GOMAXPROCS) new goroutines, each calling newObjective
// once for an objective of its own (so
// newObjective must be safe for concurrent calls), and objectives that
// mutate private state need no locking. A goroutine keeps its
// searches' state to itself, a search's trajectory depends only on its
// own values, each start writes only its own result slot, and the
// winner is reduced in start order with a strict less-than. X, F, Evals
// and the state rng is left in are therefore identical at any
// GOMAXPROCS and any grouping.
func MultiStart(newObjective func() BatchObjective, x0 []float64, bounds Bounds, starts, group int, rng *rand.Rand, opts NelderMeadOpts) Result {
	if starts < 1 {
		starts = 1
	}
	group = min(max(group, 1), MaxLanes)
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
	groups := (starts + group - 1) / group
	var next atomic.Int64
	work := func() {
		f := newObjective()
		var searches [MaxLanes]stepper
		for {
			g := int(next.Add(1)) - 1
			if g >= groups {
				return
			}
			first := g * group
			run := searches[:min(group, starts-first)]
			for i := range run {
				run[i].reset(points[first+i], bounds, opts)
			}
			lockstep(f, run)
			for i := range run {
				results[first+i] = run[i].result()
			}
		}
	}
	// Every worker starts on a new goroutine while the caller waits. A
	// worker queued behind a running caller could start late and cost a
	// two-core fit its speed-up, and a caller computing a fit alone
	// gives the scheduler no point at which the collector's mark worker
	// can run, which on one core kept a collection, and its write
	// barriers, open for milliseconds.
	workers := min(groups, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
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

// lockstep runs a group of searches to their ends, each round
// evaluating every unfinished search's pending point in one call.
func lockstep(f BatchObjective, group []stepper) {
	var (
		xs  [MaxLanes][]float64
		fs  [MaxLanes]float64
		who [MaxLanes]int
	)
	for {
		k := 0
		for i := range group {
			if x := group[i].pending(); x != nil {
				xs[k], who[k] = x, i
				k++
			}
		}
		if k == 0 {
			return
		}
		f(xs[:k], fs[:k])
		for j := 0; j < k; j++ {
			group[who[j]].tell(fs[j])
		}
	}
}
