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

func TestMultiStartEscapesLocalMinimum(t *testing.T) {
	// Double well with the deeper valley far from the deterministic start.
	f := func(x []float64) float64 {
		v := x[0]
		return math.Min((v+3)*(v+3)+1, (v-4)*(v-4)) // global min 0 at x=4
	}
	rng := rand.New(rand.NewSource(7))
	res := MultiStart(func() Objective { return f }, []float64{-3}, boxAround(1, -6, 6), 8, rng, NelderMeadOpts{})
	if math.Abs(res.X[0]-4) > 1e-3 {
		t.Fatalf("x = %v, want 4", res.X[0])
	}
}

func TestMultiStartAtLeastOneRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res := MultiStart(func() Objective { return sphere }, []float64{1}, boxAround(1, -2, 2), 0, rng, NelderMeadOpts{})
	if res.F > 1e-6 {
		t.Fatalf("f = %v", res.F)
	}
}

// TestMultiStartIdenticalAtAnyGOMAXPROCS pins the fan-out contract: the
// same winner, evaluation count and leftover rng state whether the starts
// run on one goroutine or several, with one objective per goroutine.
func TestMultiStartIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	// A bumpy 2-D objective whose starts land in different basins.
	bumpy := func(x []float64) float64 {
		return math.Sin(3*x[0])*math.Cos(2*x[1]) + 0.1*(x[0]*x[0]+x[1]*x[1])
	}
	run := func(procs int) (Result, float64, int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var made atomic.Int64
		newObj := func() Objective {
			made.Add(1)
			return bumpy
		}
		rng := rand.New(rand.NewSource(11))
		res := MultiStart(newObj, []float64{0.5, -0.5}, boxAround(2, -4, 4), 6, rng, NelderMeadOpts{})
		return res, rng.Float64(), made.Load()
	}
	want, wantNext, made := run(1)
	if made != 1 {
		t.Fatalf("GOMAXPROCS=1 built %d objectives, want 1", made)
	}
	for _, procs := range []int{2, 3, 8} {
		got, next, made := run(procs)
		if wantMade := int64(min(6, procs)); made != wantMade {
			t.Fatalf("GOMAXPROCS=%d built %d objectives, want %d", procs, made, wantMade)
		}
		if got.F != want.F || got.Evals != want.Evals || got.X[0] != want.X[0] || got.X[1] != want.X[1] {
			t.Fatalf("GOMAXPROCS=%d: %+v, want %+v", procs, got, want)
		}
		if next != wantNext {
			t.Fatalf("GOMAXPROCS=%d: rng left at %v, want %v", procs, next, wantNext)
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
