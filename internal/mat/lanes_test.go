package mat

import (
	"math"
	"math/rand"
	"testing"

	"mlcd/internal/cpufeat"
)

// matEdges are entries at the edges of the kernels' arithmetic: zeros of
// both signs, subnormals, huge values, NaN and infinities.
var matEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308, 1e-300,
	1e300, -1e300, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// gramSE returns the squared-exponential Gram matrix of n points in
// [0, 2), some of them repeated: numerically singular, so it factors
// only under a large enough shift, as a GP kernel matrix does.
func gramSE(n int, rng *rand.Rand) *Dense {
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = rng.Float64() * 2
		if i > 0 && rng.Intn(4) == 0 {
			pts[i] = pts[rng.Intn(i)]
		}
	}
	a := NewDense(n, n)
	for i := range pts {
		for j := range pts {
			d := pts[i] - pts[j]
			a.Set(i, j, math.Exp(-0.5*d*d))
		}
	}
	return a
}

// packLanes packs the lower triangles of mats, all of one order, one
// lane after another, as LaneCholesky.Factor reads them.
func packLanes(mats []*Dense) []float64 {
	n := mats[0].rows
	tri := n * (n + 1) / 2
	tris := make([]float64, len(mats)*tri)
	for l, a := range mats {
		packLower(tris[l*tri:(l+1)*tri], a)
	}
	return tris
}

// checkLanes factors mats[l] + shifts[l]·I in lanes and each alone with
// the left-looking loop, and solves each against y: a lane must fail
// exactly where factorScalar fails, and a lane that factors must match
// factorScalar in every entry's bits, SolveVecInto (the forward, then the
// back solve) in every entry of its solution, and Dot and
// Cholesky.LogDet in yᵀx and the log-determinant. It skips where the
// kernels are not armed, and returns how many lanes factored.
func checkLanes(t *testing.T, mats []*Dense, shifts []float64, y []float64, label string) int {
	t.Helper()
	n, lanes := mats[0].rows, len(mats)
	tris := packLanes(mats)
	orig := append([]float64(nil), tris...)
	var sh [4]float64
	copy(sh[:], shifts)
	if !laneCholArmed {
		t.Skip("four-lane Cholesky not armed here")
	}
	var c LaneCholesky
	failed := c.Factor(tris, n, lanes, &sh)
	var ya, ld [4]float64
	c.SolveDot(y, &ya)
	c.LogDets(&ld)
	ok := 0
	for l, a := range mats {
		want := &Cholesky{n: n, l: NewDense(n, n)}
		col := factorScalar(want.l, a, shifts[l])
		if (failed>>l&1 == 1) != (col < n) {
			t.Fatalf("%s: n=%d lane %d of %d: mask %04b, factorScalar column %d", label, n, l, lanes, failed, col)
		}
		if col < n {
			continue
		}
		ok++
		got := NewDense(n, n)
		for i := 0; i < n; i++ {
			for k := 0; k <= i; k++ {
				got.Set(i, k, c.l[(i*(i+1)/2+k)*4+l])
			}
		}
		sameFactorBits(t, got, want.l, label)
		x := want.SolveVecInto(make([]float64, n), y)
		for i, v := range x {
			if g := c.w[4*i+l]; !sameResult(g, v) {
				t.Fatalf("%s: n=%d lane %d: x[%d] = %v, SolveVecInto %v", label, n, l, i, g, v)
			}
		}
		if d := Dot(y, x); !sameResult(ya[l], d) {
			t.Fatalf("%s: n=%d lane %d: yᵀx = %v, Dot %v", label, n, l, ya[l], d)
		}
		if w := want.LogDet(); !sameResult(ld[l], w) {
			t.Fatalf("%s: n=%d lane %d: LogDets %v, Cholesky.LogDet %v", label, n, l, ld[l], w)
		}
	}
	if !sameBits(tris, orig) {
		t.Fatalf("%s: n=%d: the packed triangles were mutated", label, n)
	}
	return ok
}

// sameResult reports whether got and want hold the same bits or are
// both NaN. Which NaN an operation returns follows its operand order,
// which the kernels do not promise to share with the compiled loops (a
// race build orders Dot's operands differently); the GP reruns a lane
// whose likelihood is NaN through the scalar path.
func sameResult(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

func sameFactorBits(t *testing.T, got, want *Dense, label string) {
	t.Helper()
	for i, w := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(w) {
			n := want.rows
			t.Fatalf("%s: n=%d: L[%d][%d] = %v, scalar %v", label, n, i/n, i%n, got.data[i], w)
		}
	}
}

// laneRHS returns a right-hand side of order n with inexact entries
// and, with edges set, some at the arithmetic's edges.
func laneRHS(n int, rng *rand.Rand, edges bool) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = rng.NormFloat64()
		if edges && rng.Intn(8) == 0 {
			y[i] = matEdges[rng.Intn(len(matEdges))]
		}
	}
	return y
}

// TestCholeskyLanesMatchScalar pins the four-lane factor and solve
// against the left-looking loop, SolveVecInto and Dot at orders 1–40
// and 1–4 lanes: well-conditioned matrices, singular Gram matrices
// under the GP's jitter ladder (lanes failing at different columns and
// rungs, beside lanes that factor), non-SPD matrices and negative
// shifts, and entries and right-hand sides at the arithmetic's edges.
// Disarmed, the GP never calls the kernels; gp_ext_test.go's
// TestFitMLECatalogMatLanesMatchScalar covers the fit's scalar path.
func TestCholeskyLanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	failed, ok := 0, 0
	for n := 1; n <= 40; n++ {
		for lanes := 1; lanes <= 4; lanes++ {
			mats := make([]*Dense, lanes)
			shifts := make([]float64, lanes)
			for l := range mats {
				switch rng.Intn(4) {
				case 0:
					mats[l], shifts[l] = randomSPD(n, rng), rng.Float64()
				case 1:
					mats[l], shifts[l] = randomSPD(n, rng), -float64(n)*rng.Float64()*4
				case 2:
					mats[l], shifts[l] = gramSE(n, rng), math.Pow(10, -18+17*rng.Float64())
				default:
					e := randomSPD(n, rng)
					for k := 0; k < 1+n/4; k++ {
						i, j := rng.Intn(n), rng.Intn(n)
						e.Set(max(i, j), min(i, j), matEdges[rng.Intn(len(matEdges))])
					}
					mats[l], shifts[l] = e, 0.5
				}
			}
			got := checkLanes(t, mats, shifts, laneRHS(n, rng, lanes == 4), "mixed")
			ok, failed = ok+got, failed+lanes-got
			checkLanes(t, []*Dense{randomDense(n, n, rng)}, []float64{0}, laneRHS(n, rng, false), "random symmetric")
		}
	}
	t.Logf("%d lanes failed, %d factored", failed, ok)
	if failed == 0 || ok == 0 {
		t.Errorf("%d lanes failed and %d factored; want some of each", failed, ok)
	}
}

// TestForwardSolveLanesMatchScalar pins the batched forward solve armed
// against disarmed at widths 1–9 and longer, on right-hand sides holding
// the arithmetic's edge values.
func TestForwardSolveLanesMatchScalar(t *testing.T) {
	t.Logf("four-lane forward solve armed: %v", solveArmed)
	armed := solveArmed
	defer func() { solveArmed = armed }()
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{1, 2, 5, 13, 35} {
		chol, err := NewCholesky(randomSPD(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 130} {
			b := randomDense(n, m, rng)
			for k := 0; k < m*n/3; k++ {
				b.data[rng.Intn(len(b.data))] = matEdges[rng.Intn(len(matEdges))]
			}
			var got [2]*Dense
			for s, on := range []bool{armed, false} {
				solveArmed = on
				got[s] = b.Clone()
				chol.ForwardSolveBatch(got[s])
			}
			if !sameBits(got[0].data, got[1].data) {
				sameDense(t, got[0], got[1], "ForwardSolveBatch armed vs disarmed")
				t.Fatalf("n=%d m=%d: armed and disarmed differ in a NaN's bits", n, m)
			}
		}
	}
}

// TestCholeskyLanesArmedWhereSupported fails when the self-check
// disarms the four-lane factor and solve on a CPU that has AVX2: that
// is a kernel that no longer matches factorScalar, which every other
// test would then miss, since the likelihood falls back to the scalar
// objective.
func TestCholeskyLanesArmedWhereSupported(t *testing.T) {
	if cpufeat.AVX2 && !laneCholArmed {
		t.Fatal("four-lane Cholesky disarmed: its self-check no longer matches factorScalar")
	}
}

// TestSolveLanesArmedWhereSupported is the same check for the batched
// forward solve.
func TestSolveLanesArmedWhereSupported(t *testing.T) {
	if cpufeat.AVX2 && !solveArmed {
		t.Fatal("four-lane forward solve disarmed: its self-check no longer matches forwardSolveScalar")
	}
}

// FuzzCholeskyLanes factors fuzzer-chosen systems in four lanes and
// each alone: order 1–40, each lane a Gram matrix of rank 1–n from the
// fuzzer's seed under the raw shift scaled by 10^(l−1), so singular,
// non-SPD and NaN lanes occur beside lanes that factor. Failures, every
// factor entry and every solve must agree.
func FuzzCholeskyLanes(f *testing.F) {
	f.Add(int64(1), uint8(24), 1e-6)
	f.Add(int64(2), uint8(9), -0.5)
	f.Add(int64(3), uint8(39), 0.0)
	f.Add(int64(4), uint8(0), math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, order uint8, shift float64) {
		n := int(order%40) + 1
		rng := rand.New(rand.NewSource(seed))
		lanes := 1 + rng.Intn(4)
		mats := make([]*Dense, lanes)
		shifts := make([]float64, lanes)
		for l := range mats {
			r := 1 + rng.Intn(n)
			g := randomDense(n, r, rng)
			a := NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					a.Set(i, j, Dot(g.Row(i), g.Row(j)))
				}
			}
			mats[l], shifts[l] = a, shift*math.Pow(10, float64(l-1))
		}
		checkLanes(t, mats, shifts, laneRHS(n, rng, true), "fuzz")
	})
}

// benchOrder is the order the Cholesky pair factors: a mid-search
// refit's.
const benchOrder = 24

// benchLanes returns three systems of order benchOrder, packed, with
// their shifts and a right-hand side: one lockstep likelihood call's
// inputs.
func benchLanes() ([]*Dense, []float64, [4]float64, []float64) {
	rng := rand.New(rand.NewSource(63))
	mats := []*Dense{randomSPD(benchOrder, rng), randomSPD(benchOrder, rng), randomSPD(benchOrder, rng)}
	return mats, packLanes(mats), [4]float64{1e-3, 1e-4, 1e-2}, laneRHS(benchOrder, rng, false)
}

// BenchmarkLaneCholeskyScalar factors and solves the three systems one
// at a time as the scalar objective does: CholeskyInto into reused
// storage, SolveVecInto, then Dot. It is the base of the -pair gate
// that BenchmarkLaneCholesky may not exceed.
func BenchmarkLaneCholeskyScalar(b *testing.B) {
	mats, _, shifts, y := benchLanes()
	dst := make([]*Cholesky, len(mats))
	x := make([]float64, benchOrder)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l, a := range mats {
			c, err := CholeskyInto(dst[l], a, shifts[l])
			if err != nil {
				b.Fatal(err)
			}
			dst[l] = c
			c.SolveVecInto(x, y)
			sink += Dot(y, x)
		}
	}
	_ = sink
}

// BenchmarkLaneCholesky times the same three systems in one four-lane
// Factor and one SolveDot where the kernels are armed (the scalar loops
// otherwise); its armed metric says which ran.
func BenchmarkLaneCholesky(b *testing.B) {
	if !laneCholArmed {
		BenchmarkLaneCholeskyScalar(b)
		b.ReportMetric(0, "armed")
		return
	}
	_, tris, shifts, y := benchLanes()
	var c LaneCholesky
	var ya [4]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Factor(tris, benchOrder, 3, &shifts) != 0 {
			b.Fatal("a lane failed")
		}
		c.SolveDot(y, &ya)
	}
	b.ReportMetric(1, "armed")
}
