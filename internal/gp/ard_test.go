package gp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mlcd/internal/cloud"
	"mlcd/internal/cpufeat"
)

// ardEdges are coordinates at the edges of the distance kernel: zeros of
// both signs, subnormals, a value whose scaled square overflows, and the
// inputs whose sums are NaN or infinite.
var ardEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
	1e-300, 0.75, -1.5, 3, 1e150, 1e300, -math.MaxFloat64,
	math.NaN(), math.Float64frombits(0x7ff0000000000bad), math.Inf(1), math.Inf(-1),
}

// ardAt returns an ard over dim inputs whose lengthscales sit at the low
// end of the box (where = 0), the high end (1), or alternate (2).
func ardAt(dim, where int) *ard {
	a := newARD(dim)
	b := a.bounds()
	p := make([]float64, 1+dim)
	for i := 1; i < len(p); i++ {
		p[i] = b.Lo[i]
		if where == 1 || where == 2 && i%2 == 0 {
			p[i] = b.Hi[i]
		}
	}
	a.setParams(p)
	return &a
}

// checkARD asserts that sqDistRow(x, qs) and sqDistBatch over the
// differences x − q give the same bits armed and disarmed.
func checkARD(t *testing.T, a *ard, x, qs []float64) {
	t.Helper()
	dim := len(x)
	n := len(qs) / dim
	diffs := make([]float64, len(qs))
	for i := range qs {
		diffs[i] = x[i%dim] - qs[i]
	}
	armed := ardArmed
	defer func() { ardArmed = armed }()
	var rows, pairs [2][]float64
	for s, on := range []bool{armed, false} {
		ardArmed = on
		rows[s] = make([]float64, n)
		a.sqDistRow(rows[s], x, qs)
		pairs[s] = make([]float64, n)
		a.sqDistBatch(pairs[s], diffs)
	}
	for c := 0; c < n; c++ {
		if math.Float64bits(rows[0][c]) != math.Float64bits(rows[1][c]) {
			t.Fatalf("dim %d, %d queries: sqDistRow[%d] = %v armed, %v disarmed (x=%v q=%v ℓ=%v)",
				dim, n, c, rows[0][c], rows[1][c], x, qs[c*dim:c*dim+dim], a.lens)
		}
		if math.Float64bits(pairs[0][c]) != math.Float64bits(pairs[1][c]) {
			t.Fatalf("dim %d, %d pairs: sqDistBatch[%d] = %v armed, %v disarmed (diff=%v ℓ=%v)",
				dim, n, c, pairs[0][c], pairs[1][c], diffs[c*dim:c*dim+dim], a.lens)
		}
	}
}

// TestARDLanesMatchScalar pins both distance forms armed against
// disarmed, bit for bit: dims 1–8, lengths 0–9 and longer, lengthscales
// at both ends of the box, and coordinates that are plain, repeated
// (zero differences), at the edges, or NaN and infinite.
func TestARDLanesMatchScalar(t *testing.T) {
	t.Logf("four-lane distance kernel armed: %v", ardArmed)
	rng := rand.New(rand.NewSource(51))
	for dim := 1; dim <= 8; dim++ {
		for where := 0; where < 3; where++ {
			a := ardAt(dim, where)
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 64} {
				for mode := 0; mode < 3; mode++ {
					x := make([]float64, dim)
					qs := make([]float64, n*dim)
					draw := func(i int) float64 {
						switch {
						case mode == 1 && rng.Intn(2) == 0:
							return ardEdges[rng.Intn(12)] // finite edges
						case mode == 2 && rng.Intn(4) == 0:
							return ardEdges[rng.Intn(len(ardEdges))]
						case i >= dim && rng.Intn(3) == 0:
							return x[i%dim] // a zero difference
						}
						return rng.Float64()*16 - 8
					}
					for i := range x {
						x[i] = draw(i)
					}
					for i := range qs {
						qs[i] = draw(dim + i)
					}
					checkARD(t, a, x, qs)
				}
			}
		}
	}
}

// TestARDLanesDeclines pins what the kernel hands back: blocks of four
// up to the first whose sums hold a NaN, and never a tail of fewer than
// four.
func TestARDLanesDeclines(t *testing.T) {
	if !ardArmed {
		t.Skip("four-lane distance kernel not armed on this CPU")
	}
	lens := []float64{0.5, 2}
	nan := math.NaN()
	for _, tc := range []struct {
		diffs []float64
		want  int
	}{
		{[]float64{1, 2, 3, 4, 5, 6}, 0},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, 4},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, nan, 15, 16}, 4},
		{[]float64{1, nan, 3, 4, 5, 6, 7, 8}, 0},
		{[]float64{math.Inf(1), 2, math.Inf(-1), 4, 0, 0, 7, 8}, 4},
	} {
		dst := make([]float64, len(tc.diffs)/2)
		for i := range dst {
			dst[i] = -1
		}
		if got := sqDistDiffLanes(dst, tc.diffs, lens); got != tc.want {
			t.Errorf("sqDistDiffLanes(%v) wrote %d values, want %d", tc.diffs, got, tc.want)
		}
		for i := tc.want; i < len(dst); i++ {
			if dst[i] != -1 {
				t.Errorf("sqDistDiffLanes(%v) wrote declined value %d", tc.diffs, i)
			}
		}
		// The same block as queries against the origin: −q has q's
		// NaN-ness, so the row form declines at the same block.
		for i := range dst {
			dst[i] = -1
		}
		if got := sqDistRowLanes(dst, make([]float64, len(lens)), tc.diffs, lens); got != tc.want {
			t.Errorf("sqDistRowLanes(%v) wrote %d values, want %d", tc.diffs, got, tc.want)
		}
		for i := tc.want; i < len(dst); i++ {
			if dst[i] != -1 {
				t.Errorf("sqDistRowLanes(%v) wrote declined value %d", tc.diffs, i)
			}
		}
	}
}

// TestARDArmedWhereSupported fails when the self-check disarms the
// distance kernel on a CPU that has AVX2: that is a kernel that no
// longer matches the scalar loop, which every other test would then miss
// by running the scalar path.
func TestARDArmedWhereSupported(t *testing.T) {
	if cpufeat.AVX2 && !ardArmed {
		t.Fatal("four-lane distance kernel disarmed: its self-check no longer matches sqDistDiff")
	}
}

// FuzzARDLanes feeds fuzzer-chosen coordinates through both distance
// forms armed and disarmed. Each 8-byte word is a coordinate: its raw
// bits when its low bit is clear, else a uniform draw over [−16, 16).
// The first dim words are x, the rest the queries; lengthscales are
// drawn across the kernel's box, ends included.
func FuzzARDLanes(f *testing.F) {
	seed := make([]byte, 0, 8*len(ardEdges))
	for _, v := range ardEdges {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(3), int64(1))
	f.Add([]byte("four-lane distance kernel: forty bytes.."), uint8(5), int64(2))
	f.Add(make([]byte, 8*18), uint8(1), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, dimRaw uint8, lenSeed int64) {
		dim := int(dimRaw%8) + 1
		words := len(data) / 8
		if words < dim {
			return
		}
		vals := make([]float64, words-(words-dim)%dim)
		for i := range vals {
			w := binary.LittleEndian.Uint64(data[8*i:])
			if w&1 == 0 {
				vals[i] = math.Float64frombits(w)
			} else {
				vals[i] = float64(w>>11)/(1<<53)*32 - 16
			}
		}
		a := newARD(dim)
		b := a.bounds()
		rng := rand.New(rand.NewSource(lenSeed))
		p := make([]float64, 1+dim)
		for i := 1; i < len(p); i++ {
			switch rng.Intn(4) {
			case 0:
				p[i] = b.Lo[i]
			case 1:
				p[i] = b.Hi[i]
			default:
				p[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
			}
		}
		a.setParams(p)
		checkARD(t, &a, vals[:dim], vals[dim:])
	})
}

// catalogGP conditions a Matérn 5/2 GP on n deployments drawn from the
// default catalog at node counts 1–16, with targets shaped like measured
// throughput. Catalog features repeat (node counts, GPU counts of 0,
// shared vCPU counts), so the state has zero differences and, once
// fitted, lengthscales at the 4.0 cap: the inputs Gaussian benchmark
// features never produce.
func catalogGP(t *testing.T, n int, rng *rand.Rand) *GP {
	t.Helper()
	types := cloud.DefaultCatalog().Types()
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		d := cloud.Deployment{Type: types[rng.Intn(len(types))], Nodes: 1 << rng.Intn(5)}
		xs[i] = cloud.Features(d)
		ys[i] = math.Log(float64(d.Nodes))*0.8 + xs[i][0]*0.3 + float64(d.Type.GPUs) + rng.NormFloat64()*0.05
	}
	g := New(NewMatern52(len(xs[0])), 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFitMLECatalogLanesMatchScalar fits catalog GP states with the
// package's four-lane kernels (distances and Matérn map) armed and
// disarmed: the parameters, log-likelihood, alpha and a posterior sweep
// over the whole catalog must be identical bit for bit. internal/mat's
// external tests do the same for its kernels.
func TestFitMLECatalogLanesMatchScalar(t *testing.T) {
	ardOn, maternOn := ardArmed, maternArmed
	defer func() { ardArmed, maternArmed = ardOn, maternOn }()
	space := cloud.NewSpace(cloud.DefaultCatalog(), cloud.SpaceLimits{MaxCPUNodes: 16, MaxGPUNodes: 8})
	var qs []float64
	for _, d := range space.All() {
		qs = append(qs, cloud.Features(d)...)
	}
	dim := len(qs) / space.Len()
	capped := 0
	for _, n := range []int{3, 8, 14, 24, 35} {
		type fit struct {
			params    []float64
			lml       float64
			alpha     []float64
			mu, sigma []float64
		}
		var fits [2]fit
		for s, on := range []bool{true, false} {
			ardArmed, maternArmed = on && ardOn, on && maternOn
			g := catalogGP(t, n, rand.New(rand.NewSource(int64(n))))
			if err := g.FitMLE(rand.New(rand.NewSource(7))); err != nil {
				t.Fatal(err)
			}
			f := fit{
				params: append(g.kernel.Params(), g.logNoise),
				lml:    g.LogMarginalLikelihood(),
				alpha:  append([]float64(nil), g.alpha...),
				mu:     make([]float64, space.Len()),
				sigma:  make([]float64, space.Len()),
			}
			var ps PredictMatrixScratch
			g.PredictMatrix(qs, dim, nil, f.mu, f.sigma, &ps)
			fits[s] = f
		}
		a, d := fits[0], fits[1]
		for _, p := range a.params[1:dim] {
			if p == math.Log(4.0) {
				capped++
			}
		}
		if !sameBits(a.params, d.params) || math.Float64bits(a.lml) != math.Float64bits(d.lml) ||
			!sameBits(a.alpha, d.alpha) || !sameBits(a.mu, d.mu) || !sameBits(a.sigma, d.sigma) {
			t.Fatalf("n=%d: armed and disarmed fits differ: params %v vs %v, log-likelihood %v vs %v",
				n, a.params, d.params, a.lml, d.lml)
		}
	}
	if capped == 0 {
		t.Error("no fit put a lengthscale at the 4.0 cap; the states no longer cover it")
	}
}

// benchARD times the distances of the packed lower triangle of 24
// points in 5-D, the difference cache a refit's kernel-matrix rebuild
// reads: 300 pairs.
func benchARD(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	a := ardAt(5, 2)
	var diffs []float64
	pts := make([][]float64, 24)
	for i := range pts {
		pts[i] = make([]float64, 5)
		for k := range pts[i] {
			pts[i][k] = rng.NormFloat64() * 2
		}
		for j := 0; j <= i; j++ {
			for k := range pts[i] {
				diffs = append(diffs, pts[i][k]-pts[j][k])
			}
		}
	}
	dst := make([]float64, len(diffs)/5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.sqDistBatch(dst, diffs)
	}
}

// BenchmarkARDScalar times the distances with the four-lane kernel
// disarmed: the scalar loop. It is the base of the -pair gate that
// BenchmarkARDLanes may not exceed.
func BenchmarkARDScalar(b *testing.B) {
	armed := ardArmed
	defer func() { ardArmed = armed }()
	ardArmed = false
	benchARD(b)
}

// BenchmarkARDLanes times the same distances through the armed kernel
// where the platform has one (the scalar loop elsewhere).
func BenchmarkARDLanes(b *testing.B) {
	benchARD(b)
	armed := 0.0
	if ardArmed {
		armed = 1
	}
	b.ReportMetric(armed, "armed")
}
