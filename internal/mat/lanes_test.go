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

// checkFactor factors a + shift·I with the left-looking loop and with
// the kernel (order cutoff bypassed) and with CholeskyInto armed and
// disarmed, and asserts the same failing column or, on success, the same
// bits in every entry. It reports whether the factor succeeded.
func checkFactor(t *testing.T, a *Dense, shift float64, label string) bool {
	t.Helper()
	n := a.rows
	orig := append([]float64(nil), a.data...)
	want := NewDense(n, n)
	wc := factorScalar(want, a, shift)
	if cholArmed {
		got := randomDense(n, n, rand.New(rand.NewSource(int64(n)))) // stale contents
		if gc := choleskyLanes(got.data, a.data, n, shift); gc != wc {
			t.Fatalf("%s: n=%d shift=%v: kernel failed at column %d, scalar at %d", label, n, shift, gc, wc)
		} else if wc == n {
			sameFactorBits(t, got, want, label)
		}
	}
	armed := cholArmed
	defer func() { cholArmed = armed }()
	for _, on := range []bool{armed, false} {
		cholArmed = on
		c, err := CholeskyInto(&Cholesky{n: n, l: randomDense(n, n, rand.New(rand.NewSource(1)))}, a, shift)
		if (err == nil) != (wc == n) {
			t.Fatalf("%s: n=%d shift=%v armed=%v: err %v, scalar column %d", label, n, shift, on, err, wc)
		}
		if err == nil {
			sameFactorBits(t, c.l, want, label)
		}
	}
	if !sameBits(a.data, orig) {
		t.Fatalf("%s: n=%d: the input matrix was mutated", label, n)
	}
	return wc == n
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

// TestCholeskyLanesMatchScalar pins the four-lane factor against the
// left-looking loop at orders 1–40: well-conditioned matrices, singular
// Gram matrices under the GP's jitter ladder (failing low on it,
// succeeding higher), non-SPD matrices and negative shifts (same
// error, same column), and entries at the arithmetic's edges.
func TestCholeskyLanesMatchScalar(t *testing.T) {
	t.Logf("four-lane Cholesky armed: %v", cholArmed)
	rng := rand.New(rand.NewSource(61))
	failed, ok := 0, 0
	for n := 1; n <= 40; n++ {
		checkFactor(t, randomSPD(n, rng), rng.Float64(), "spd")
		checkFactor(t, randomSPD(n, rng), -float64(n)*rng.Float64()*4, "negative shift")
		g := gramSE(n, rng)
		for jitter := 1e-18; jitter < 1; jitter *= 10 {
			if checkFactor(t, g, jitter, "jitter ladder") {
				ok++
			} else {
				failed++
			}
		}
		sym := randomDense(n, n, rng)
		checkFactor(t, sym, 0, "random symmetric")
		for trial := 0; trial < 3; trial++ {
			e := randomSPD(n, rng)
			for k := 0; k < 1+n/4; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				e.Set(max(i, j), min(i, j), matEdges[rng.Intn(len(matEdges))])
			}
			checkFactor(t, e, 0.5, "edge entries")
		}
	}
	t.Logf("jitter ladder: %d factors failed, %d succeeded", failed, ok)
	if failed == 0 || ok == 0 {
		t.Errorf("jitter ladder: %d factors failed and %d succeeded; want some of each", failed, ok)
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
// disarms the factor kernel on a CPU that has AVX2: that is a kernel
// that no longer matches factorScalar, which every other test would then
// miss by running the scalar path.
func TestCholeskyLanesArmedWhereSupported(t *testing.T) {
	if cpufeat.AVX2 && !cholArmed {
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

// FuzzCholeskyLanes factors fuzzer-chosen matrices with the kernel and
// the left-looking loop: orders 1–40, a Gram matrix of rank 1–n from the
// fuzzer's seed, and a raw shift, so singular, non-SPD and NaN inputs
// all occur. The failing column, or every entry's bits, must agree.
func FuzzCholeskyLanes(f *testing.F) {
	f.Add(int64(1), uint8(24), 1e-6)
	f.Add(int64(2), uint8(9), -0.5)
	f.Add(int64(3), uint8(39), 0.0)
	f.Add(int64(4), uint8(0), math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, order uint8, shift float64) {
		n := int(order%40) + 1
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(n)
		g := randomDense(n, r, rng)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				a.Set(i, j, Dot(g.Row(i), g.Row(j)))
			}
		}
		checkFactor(t, a, shift, "fuzz")
	})
}

// benchOrder is the order the Cholesky pair factors.
const benchOrder = 24

// benchCholesky times refactoring a 24×24 matrix into reused storage.
func benchCholesky(b *testing.B) {
	a := randomSPD(benchOrder, rand.New(rand.NewSource(63)))
	dst, err := CholeskyInto(nil, a, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CholeskyInto(dst, a, 1e-3)
	}
}

// BenchmarkCholeskyScalar times the factor with the four-lane kernel
// disarmed: the left-looking loop. It is the base of the -pair gate that
// BenchmarkCholeskyLanes may not exceed.
func BenchmarkCholeskyScalar(b *testing.B) {
	armed := cholArmed
	defer func() { cholArmed = armed }()
	cholArmed = false
	benchCholesky(b)
}

// BenchmarkCholeskyLanes times the same factor through the armed kernel
// where the platform has one and the order reaches cholLanesMin (the
// scalar loop otherwise); its armed metric says which ran.
func BenchmarkCholeskyLanes(b *testing.B) {
	benchCholesky(b)
	armed := 0.0
	if cholArmed && benchOrder >= cholLanesMin {
		armed = 1
	}
	b.ReportMetric(armed, "armed")
}
