package optim

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func boxAround(dim int, lo, hi float64) Bounds {
	b := Bounds{Lo: make([]float64, dim), Hi: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		b.Lo[i], b.Hi[i] = lo, hi
	}
	return b
}

func TestNelderMeadSphere(t *testing.T) {
	for _, dim := range []int{1, 2, 4} {
		res := NelderMead(sphere, make([]float64, dim), boxAround(dim, -5, 5), NelderMeadOpts{})
		if res.F > 1e-6 {
			t.Fatalf("dim=%d: f = %v, want ≈0 (x=%v)", dim, res.F, res.X)
		}
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	rosen := func(x []float64) float64 {
		a, b := x[0], x[1]
		return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	}
	res := NelderMead(rosen, []float64{-1.2, 1}, boxAround(2, -5, 5), NelderMeadOpts{MaxIter: 4000, TolF: 1e-12})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("x = %v, want (1,1); f=%v", res.X, res.F)
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	// Minimum of (x-10)² over [-1, 1] is at the boundary x = 1.
	f := func(x []float64) float64 { return (x[0] - 10) * (x[0] - 10) }
	res := NelderMead(f, []float64{0}, boxAround(1, -1, 1), NelderMeadOpts{})
	if math.Abs(res.X[0]-1) > 1e-4 {
		t.Fatalf("x = %v, want 1 (bound)", res.X[0])
	}
}

func TestNelderMeadStartOutsideBoxIsClamped(t *testing.T) {
	res := NelderMead(sphere, []float64{100, -100}, boxAround(2, -1, 1), NelderMeadOpts{})
	for _, v := range res.X {
		if v < -1 || v > 1 {
			t.Fatalf("solution %v escaped the box", res.X)
		}
	}
	if res.F > 1e-6 {
		t.Fatalf("f = %v, want ≈0", res.F)
	}
}

func TestNelderMeadPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty start", func() { NelderMead(sphere, nil, Bounds{}, NelderMeadOpts{}) })
	mustPanic("bad bounds", func() {
		NelderMead(sphere, []float64{0}, Bounds{Lo: []float64{1}, Hi: []float64{-1}}, NelderMeadOpts{})
	})
}

func TestNelderMeadCountsEvals(t *testing.T) {
	res := NelderMead(sphere, []float64{1, 1}, boxAround(2, -2, 2), NelderMeadOpts{MaxIter: 10})
	if res.Evals <= 0 {
		t.Fatal("Evals must be positive")
	}
}

// each returns a factory of batch objectives that evaluate f point by
// point.
func each(f Objective) func() BatchObjective {
	return func() BatchObjective {
		return func(xs [][]float64, fs []float64) {
			for i, x := range xs {
				fs[i] = f(x)
			}
		}
	}
}

func TestMultiStartEscapesLocalMinimum(t *testing.T) {
	// Double well with the deeper valley far from the deterministic start.
	f := func(x []float64) float64 {
		v := x[0]
		return math.Min((v+3)*(v+3)+1, (v-4)*(v-4)) // global min 0 at x=4
	}
	rng := rand.New(rand.NewSource(7))
	res := MultiStart(each(f), []float64{-3}, boxAround(1, -6, 6), 8, 3, rng, NelderMeadOpts{})
	if math.Abs(res.X[0]-4) > 1e-3 {
		t.Fatalf("x = %v, want 4", res.X[0])
	}
}

func TestMultiStartAtLeastOneRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res := MultiStart(each(sphere), []float64{1}, boxAround(1, -2, 2), 0, 1, rng, NelderMeadOpts{})
	if res.F > 1e-6 {
		t.Fatalf("f = %v", res.F)
	}
}

// TestMultiStartIdenticalAtAnyGOMAXPROCS pins the fan-out contract: the
// same winner, evaluation count and leftover rng state whether the
// groups of starts run on one goroutine or several, with one objective
// per goroutine: min(groups, GOMAXPROCS) of them.
func TestMultiStartIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	// A bumpy 2-D objective whose starts land in different basins.
	bumpy := func(x []float64) float64 {
		return math.Sin(3*x[0])*math.Cos(2*x[1]) + 0.1*(x[0]*x[0]+x[1]*x[1])
	}
	const starts = 6
	run := func(procs, group int) (Result, float64, int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var made atomic.Int64
		newObj := func() BatchObjective {
			made.Add(1)
			return each(bumpy)()
		}
		rng := rand.New(rand.NewSource(11))
		res := MultiStart(newObj, []float64{0.5, -0.5}, boxAround(2, -4, 4), starts, group, rng, NelderMeadOpts{})
		return res, rng.Float64(), made.Load()
	}
	want, wantNext, made := run(1, 1)
	if made != 1 {
		t.Fatalf("GOMAXPROCS=1 built %d objectives, want 1", made)
	}
	for _, group := range []int{1, 2, 3, 4} {
		groups := (starts + group - 1) / group
		for _, procs := range []int{1, 2, 3, 8} {
			got, next, made := run(procs, group)
			if wantMade := int64(min(groups, procs)); made != wantMade {
				t.Fatalf("GOMAXPROCS=%d group=%d built %d objectives, want %d", procs, group, made, wantMade)
			}
			if got.F != want.F || got.Evals != want.Evals || got.X[0] != want.X[0] || got.X[1] != want.X[1] {
				t.Fatalf("GOMAXPROCS=%d group=%d: %+v, want %+v", procs, group, got, want)
			}
			if next != wantNext {
				t.Fatalf("GOMAXPROCS=%d group=%d: rng left at %v, want %v", procs, group, next, wantNext)
			}
		}
	}
}

// refObjectives are the shapes TestMultiStartMatchesLoop runs: smooth,
// rugged, piecewise flat (so the f-spread test passes before the x one)
// and one that is NaN or +Inf on part of the box.
var refObjectives = []struct {
	name string
	f    Objective
}{
	{"smooth", func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - 0.3*float64(i)
			s += float64(i+1) * d * d
		}
		return s
	}},
	{"rugged", func(x []float64) float64 {
		var s float64
		for i, v := range x {
			s += math.Sin(5*v+float64(i)) + 0.05*v*v
		}
		return s
	}},
	{"step", func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += math.Floor(3 * math.Abs(v-0.5))
		}
		return s
	}},
	{"nan", func(x []float64) float64 {
		switch {
		case x[0] > 1.5:
			return math.NaN()
		case x[0] < -1.5:
			return math.Inf(1)
		}
		return sphere(x) - math.Cos(2*x[0])
	}},
}

func sameResult(a, b Result) bool {
	if math.Float64bits(a.F) != math.Float64bits(b.F) || a.Evals != b.Evals || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// TestMultiStartMatchesLoop pins the lockstep MultiStart to the loop it
// replaced (ref_test.go): every start's search in every grouping gives
// the bits of X and F, the evaluation count and the leftover rng state
// of the one-start-per-loop reference, on every objective shape, at
// dimensions 1–8, 1–6 starts and iteration caps from 1 to 200, under
// the default tolerances and under loose ones that stop searches early.
func TestMultiStartMatchesLoop(t *testing.T) {
	tols := []NelderMeadOpts{{}, {TolF: 1e-3, TolX: 1e-2}}
	for _, obj := range refObjectives {
		for dim := 1; dim <= 8; dim++ {
			x0 := make([]float64, dim)
			for i := range x0 {
				x0[i] = 0.7 - 0.4*float64(i)
			}
			box := boxAround(dim, -2, 2)
			for starts := 1; starts <= 6; starts++ {
				for _, cap := range []int{1, 2, 7, 40, 200} {
					for _, tol := range tols {
						opts := tol
						opts.MaxIter = cap
						seed := int64(dim*1000 + starts*10 + cap)
						rng := rand.New(rand.NewSource(seed))
						want := multiStartLoop(func() Objective { return obj.f }, x0, box, starts, rng, opts)
						wantNext := rng.Int63()
						for group := 1; group <= MaxLanes; group++ {
							newObj := func() BatchObjective {
								return func(xs [][]float64, fs []float64) {
									if len(xs) > group {
										t.Errorf("a group of %d evaluated %d points in one call", group, len(xs))
									}
									each(obj.f)()(xs, fs)
								}
							}
							rng := rand.New(rand.NewSource(seed))
							got := MultiStart(newObj, x0, box, starts, group, rng, opts)
							if !sameResult(got, want) {
								t.Fatalf("%s dim=%d starts=%d cap=%d tol=%+v group=%d: %+v, loop %+v",
									obj.name, dim, starts, cap, tol, group, got, want)
							}
							if next := rng.Int63(); next != wantNext {
								t.Fatalf("%s dim=%d starts=%d cap=%d group=%d: rng left at %d, loop at %d",
									obj.name, dim, starts, cap, group, next, wantNext)
							}
						}
					}
				}
			}
		}
	}
}

// TestNelderMeadMatchesLoop pins the one-start stepper to the loop,
// including the order of every evaluated point.
func TestNelderMeadMatchesLoop(t *testing.T) {
	for _, obj := range refObjectives {
		for dim := 1; dim <= 8; dim++ {
			x0 := make([]float64, dim)
			for i := range x0 {
				x0[i] = 3 - float64(i) // partly outside the box: clamped
			}
			var wantPts, gotPts [][]float64
			record := func(pts *[][]float64) Objective {
				return func(x []float64) float64 {
					*pts = append(*pts, append([]float64(nil), x...))
					return obj.f(x)
				}
			}
			opts := NelderMeadOpts{MaxIter: 150}
			want := nelderMeadLoop(record(&wantPts), x0, boxAround(dim, -2, 2), opts)
			got := NelderMead(record(&gotPts), x0, boxAround(dim, -2, 2), opts)
			if !sameResult(got, want) || len(gotPts) != len(wantPts) {
				t.Fatalf("%s dim=%d: %+v after %d points, loop %+v after %d", obj.name, dim, got, len(gotPts), want, len(wantPts))
			}
			for i := range wantPts {
				if !sameResult(Result{X: gotPts[i]}, Result{X: wantPts[i]}) {
					t.Fatalf("%s dim=%d: point %d is %v, loop %v", obj.name, dim, i, gotPts[i], wantPts[i])
				}
			}
		}
	}
}

func TestBoundsClamp(t *testing.T) {
	b := boxAround(2, 0, 1)
	got := b.Clamp([]float64{-3, 7})
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("Clamp = %v", got)
	}
}

// Property: NelderMead never returns a point outside the box and never a
// worse value than the (clamped) start point for convex objectives.
func TestQuickNelderMeadBoxAndDescent(t *testing.T) {
	f := func(seed int64, c0, c1 float64) bool {
		if math.IsNaN(c0) || math.IsNaN(c1) || math.IsInf(c0, 0) || math.IsInf(c1, 0) {
			return true
		}
		c0 = math.Mod(c0, 3)
		c1 = math.Mod(c1, 3)
		obj := func(x []float64) float64 {
			return (x[0]-c0)*(x[0]-c0) + (x[1]-c1)*(x[1]-c1)
		}
		rng := rand.New(rand.NewSource(seed))
		start := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		b := boxAround(2, -2, 2)
		startF := obj(b.Clamp(append([]float64(nil), start...)))
		res := NelderMead(obj, start, b, NelderMeadOpts{MaxIter: 100})
		for _, v := range res.X {
			if v < -2-1e-12 || v > 2+1e-12 {
				return false
			}
		}
		return res.F <= startF+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
