package gp

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mlcd/internal/cpufeat"
)

// TestMaternArmedWhereSupported fails when the self-check disarms the
// kernel on a CPU that has it while math.Exp is on its FMA path: that
// is a kernel that no longer matches fromR2, which every other test
// would then miss by running the scalar path.
func TestMaternArmedWhereSupported(t *testing.T) {
	// fromR2(0.5625) at σ² = 1 has these bits on math.Exp's FMA path
	// only (its non-FMA path gives 0x3fe59ee822963947).
	onFMA := math.Float64bits(NewMatern52(1).fromR2(0.5625)) == 0x3fe59ee822963946
	if cpufeat.AVX2 && cpufeat.FMA && onFMA && !maternArmed {
		t.Fatal("four-lane kernel disarmed: its self-check no longer matches fromR2")
	}
}

// TestMaternLanesDeclines pins which blocks the kernel hands back: the
// first block holding a value the scalar path must map stops it, and a
// tail of fewer than four is never touched.
func TestMaternLanesDeclines(t *testing.T) {
	if !maternArmed {
		t.Skip("four-lane kernel not armed on this CPU")
	}
	for _, tc := range []struct {
		r2   []float64
		want int
	}{
		{[]float64{1, 2, 3}, 0},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 4},
		{[]float64{1, 2, 3, 100463.32577656332, 5, 6, 7, 8}, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 100463.32577656333}, 4},
		{[]float64{math.NaN(), 2, 3, 4}, 0},
		{[]float64{1, math.Inf(1), 3, 4}, 0},
		{[]float64{1, 2, -1e-300, 4}, 0},
		{[]float64{0, math.Copysign(0, -1), 5e-324, 4}, 4},
	} {
		buf := append([]float64(nil), tc.r2...)
		if got := maternLanes(buf, 1); got != tc.want {
			t.Errorf("maternLanes(%v) wrote %d values, want %d", tc.r2, got, tc.want)
		}
		for i := tc.want; i < len(buf); i++ {
			if math.Float64bits(buf[i]) != math.Float64bits(tc.r2[i]) {
				t.Errorf("maternLanes(%v) overwrote declined value %d", tc.r2, i)
			}
		}
	}
}

// TestMaternDisarmedWithoutFMA re-runs this test in a child process with
// GODEBUG=cpu.fma=off, which moves math.Exp onto its non-FMA path while
// CPUID still reports FMA. The child asserts that the self-check kept
// the kernel disarmed and that batched values still equal fromR2's.
func TestMaternDisarmedWithoutFMA(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Logf("CPU offers AVX2 and FMA: %v", cpufeat.AVX2 && cpufeat.FMA)
		if maternArmed {
			t.Fatal("four-lane kernel armed while math.Exp is off its FMA path")
		}
		for _, sig2 := range []float64{1e-4, 1, 1e4} {
			checkMaternBatch(t, maternWithSigma2(sig2), maternEdges)
		}
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestMaternDisarmedWithoutFMA$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestMaternDisarmedWithoutFMA") {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}
