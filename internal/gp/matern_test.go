package gp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// maternEdges are r2 values at the edges of the four-lane kernel: zero
// and subnormals, values whose exp(−s) differs between math.Exp's FMA
// and non-FMA paths, the last r2 whose exp(−s) is normal and the first
// whose is not, and the inputs only the scalar path maps.
var maternEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, 1e-300,
	0.5625, 4.6875, 6.5, 11, 1, 30,
	100463.32577656332, 100463.32577656333, 1e6, 1e300, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1), -1, -5e-324,
}

// checkMaternBatch asserts that fromR2Batch maps r2s to exactly fromR2's
// bits, value by value.
func checkMaternBatch(t *testing.T, k *Matern52, r2s []float64) {
	t.Helper()
	got := append([]float64(nil), r2s...)
	k.fromR2Batch(got)
	for i, r2 := range r2s {
		want := k.fromR2(r2)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("armed=%v σ²=%v: r2[%d]=%v (of %d) maps to %v (%#x), fromR2 gives %v (%#x)",
				maternArmed, k.sig2, i, r2, len(r2s), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// maternWithSigma2 returns a one-dimensional Matérn 5/2 kernel with
// signal variance sig2.
func maternWithSigma2(sig2 float64) *Matern52 {
	k := NewMatern52(1)
	k.SetParams([]float64{math.Log(sig2), 0})
	return k
}

// TestMaternBatchMatchesScalar pins the batched Matérn map to scalar
// fromR2 bit for bit, armed and disarmed, at slice lengths 0–9 (so the
// tail and a declined block both land in every lane position), at both
// ends of the signal-variance box, and on the kernel's edge values.
func TestMaternBatchMatchesScalar(t *testing.T) {
	armed := maternArmed
	defer func() { maternArmed = armed }()
	t.Logf("four-lane kernel armed: %v", armed)
	rng := rand.New(rand.NewSource(41))
	for _, on := range []bool{armed, false} {
		maternArmed = on
		for _, sig2 := range []float64{1e-4, 1, 1e4} {
			k := maternWithSigma2(sig2)
			for n := 0; n <= 9; n++ {
				for start := range maternEdges {
					r2s := make([]float64, n)
					for i := range r2s {
						r2s[i] = maternEdges[(start+i)%len(maternEdges)]
					}
					checkMaternBatch(t, k, r2s)
				}
				r2s := make([]float64, n)
				for i := range r2s {
					r2s[i] = rng.ExpFloat64() * 8
				}
				checkMaternBatch(t, k, r2s)
			}
		}
	}
}

// FuzzMaternBatch feeds fuzzer-chosen squared distances and a signal
// variance clamped to its box through the batched Matérn map and checks
// it against scalar fromR2. Each 8-byte word is an r2: its raw bits when
// its low bit is clear, else a uniform draw over [0, 2.5e5), which
// straddles the subnormal boundary, so both the kernel and its declines
// get fuzzed.
func FuzzMaternBatch(f *testing.F) {
	seed := make([]byte, 0, 8*len(maternEdges))
	for _, r2 := range maternEdges {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(r2))
	}
	f.Add(seed, 1.0)
	f.Add([]byte("four-lane kernel: eight words of input"), 1e4)
	f.Add(make([]byte, 8*9), 1e-4)
	f.Fuzz(func(t *testing.T, data []byte, sig2 float64) {
		switch {
		case !(sig2 >= 1e-4): // also NaN
			sig2 = 1e-4
		case sig2 > 1e4:
			sig2 = 1e4
		}
		r2s := make([]float64, len(data)/8)
		for i := range r2s {
			w := binary.LittleEndian.Uint64(data[8*i:])
			if w&1 == 0 {
				r2s[i] = math.Float64frombits(w)
			} else {
				r2s[i] = float64(w>>11) / (1 << 53) * 2.5e5
			}
		}
		checkMaternBatch(t, maternWithSigma2(sig2), r2s)
	})
}

// benchMaternR2 returns 256 squared distances spread like a kernel
// matrix's: mostly a few lengthscales apart.
func benchMaternR2() []float64 {
	rng := rand.New(rand.NewSource(43))
	r2s := make([]float64, 256)
	for i := range r2s {
		r2s[i] = rng.ExpFloat64() * 8
	}
	return r2s
}

func benchMaternBatch(b *testing.B) {
	k := maternWithSigma2(1.7)
	src := benchMaternR2()
	buf := make([]float64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		k.fromR2Batch(buf)
	}
}

// BenchmarkMaternScalar times the Matérn map over 256 values with the
// four-lane kernel disarmed: fromR2 one value at a time. It is the base
// of the -pair gate that BenchmarkMaternBatch may not exceed.
func BenchmarkMaternScalar(b *testing.B) {
	armed := maternArmed
	defer func() { maternArmed = armed }()
	maternArmed = false
	benchMaternBatch(b)
}

// BenchmarkMaternBatch times the same 256 values through the armed
// kernel where the platform has one (the scalar path elsewhere).
func BenchmarkMaternBatch(b *testing.B) {
	benchMaternBatch(b)
	armed := 0.0
	if maternArmed {
		armed = 1
	}
	b.ReportMetric(armed, "armed")
}
