package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcd/internal/conformance"
)

// TestSoakCleanRun drives the soak loop the CI job runs, on a small
// case count: it must report zero failures, leave no reproducer
// directory behind, and print the per-scenario summary line.
func TestSoakCleanRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "failures")
	var stdout, stderr strings.Builder
	fails := soak(config{cases: 12, seed: 1, shrink: true, out: out, verbose: true}, &stdout, &stderr)
	if fails != 0 {
		t.Fatalf("clean soak reported %d failures:\n%s", fails, stderr.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("clean soak left a reproducer directory behind (stat err: %v)", err)
	}
	if !strings.Contains(stdout.String(), "conformance: 12 cases") {
		t.Errorf("missing summary line in output:\n%s", stdout.String())
	}
}

// TestSoakShardedMatchesSerial: the worker count changes only the
// interleaving of the work, never what the soak prints or returns — the
// same seed must give byte-identical stdout and stderr and the same
// failure count with 1 and 3 workers.
func TestSoakShardedMatchesSerial(t *testing.T) {
	out := filepath.Join(t.TempDir(), "failures")
	var serialOut, serialErr, shardedOut, shardedErr strings.Builder
	serial := soak(config{cases: 12, seed: 1, shrink: true, verbose: true, out: out}, &serialOut, &serialErr)
	sharded := soak(config{cases: 12, seed: 1, shards: 3, shrink: true, verbose: true, out: out}, &shardedOut, &shardedErr)
	if serial != sharded {
		t.Fatalf("1 worker → %d failures, 3 workers → %d:\n%s", serial, sharded, shardedErr.String())
	}
	if !strings.Contains(shardedOut.String(), "conformance: 12 cases") {
		t.Errorf("summary line missing:\n%s", shardedOut.String())
	}
	if serialOut.String() != shardedOut.String() {
		t.Errorf("stdout differs:\n1 worker:\n%s\n3 workers:\n%s", serialOut.String(), shardedOut.String())
	}
	if serialErr.String() != shardedErr.String() {
		t.Errorf("stderr differs:\n1 worker:\n%s\n3 workers:\n%s", serialErr.String(), shardedErr.String())
	}
}

// TestSoakForcedLadder: -fidelity overrides the generator's rotation,
// so every case in the soak arms the given ladder and the run stays
// clean under the fidelity invariants.
func TestSoakForcedLadder(t *testing.T) {
	var stdout, stderr strings.Builder
	fails := soak(config{cases: 8, seed: 2, shrink: true, fidelity: "0.25,0.5",
		out: filepath.Join(t.TempDir(), "failures")}, &stdout, &stderr)
	if fails != 0 {
		t.Fatalf("forced-ladder soak reported %d failures:\n%s", fails, stderr.String())
	}
}

// TestSoakRejectsBadLadder: a malformed -fidelity is a startup error,
// not a silent classic soak.
func TestSoakRejectsBadLadder(t *testing.T) {
	var stdout, stderr strings.Builder
	if fails := soak(config{cases: 1, seed: 1, fidelity: "1.5",
		out: filepath.Join(t.TempDir(), "f")}, &stdout, &stderr); fails == 0 {
		t.Fatal("ladder 1.5 accepted")
	}
	if !strings.Contains(stderr.String(), "outside (0,1)") {
		t.Errorf("missing ladder error, got: %q", stderr.String())
	}
}

// TestRegretOutlierClassification replays a shrunk seed-7 soak failure
// (a budget case — "scenario": 2 is FastestWithBudget — whose pick
// misses the oracle optimum by more than the regret bound, with every
// correctness invariant clean): it must
// land in the regretOutliers tally, not failures, and be reported as
// TAIL with a reproducer still written.
func TestRegretOutlierClassification(t *testing.T) {
	c, err := conformance.LoadCase(filepath.Join("testdata", "regret-outlier.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "failures")
	tl := newTally()
	var stdout, stderr strings.Builder
	runCase(c, config{out: out}, tl, &stdout, &stderr)
	if tl.failures != 0 || tl.regretOutliers != 1 {
		t.Fatalf("failures=%d outliers=%d, want 0/1:\n%s", tl.failures, tl.regretOutliers, stderr.String())
	}
	if !strings.Contains(stderr.String(), "TAIL") || !strings.Contains(stderr.String(), "oracle-regret") {
		t.Errorf("outlier report wrong:\n%s", stderr.String())
	}
	if _, err := os.Stat(filepath.Join(out, c.Name+".json")); err != nil {
		t.Errorf("budgeted outlier must still leave a reproducer: %v", err)
	}
}

// TestGateFailures pins the outlier-budget arithmetic: hard failures
// always fail, outliers fail only beyond rate·cases.
func TestGateFailures(t *testing.T) {
	for _, tc := range []struct {
		hard, outliers, cases int
		rate                  float64
		want                  int
	}{
		{0, 0, 2000, 0, 0},      // clean
		{0, 4, 200, 0, 4},       // strict default: every outlier fails
		{0, 8, 2000, 0.01, 0},   // 8 ≤ 20 budgeted
		{0, 25, 2000, 0.01, 5},  // 5 beyond budget
		{2, 8, 2000, 0.01, 2},   // hard failures never budgeted
		{1, 30, 2000, 0.01, 11}, // both
		{0, 1, 50, 0.01, 1},     // budget truncates to 0 at small counts
	} {
		got := gateFailures(tc.hard, tc.outliers, tc.cases, tc.rate)
		if got != tc.want {
			t.Errorf("gateFailures(%d,%d,%d,%v) = %d, want %d",
				tc.hard, tc.outliers, tc.cases, tc.rate, got, tc.want)
		}
	}
}

// TestRegretOnly: mixed violations are hard failures, pure regret is a
// tail outlier, no violations is neither.
func TestRegretOnly(t *testing.T) {
	reg := conformance.Violation{Invariant: conformance.InvRegret, Detail: "x"}
	ledger := conformance.Violation{Invariant: conformance.InvLedger, Detail: "y"}
	if !regretOnly([]conformance.Violation{reg, reg}) {
		t.Error("pure regret violations must classify as outlier")
	}
	if regretOnly([]conformance.Violation{reg, ledger}) {
		t.Error("regret mixed with a correctness violation must stay a hard failure")
	}
	if regretOnly(nil) {
		t.Error("no violations is not an outlier")
	}
}

// TestRegretStudyWritesReport drives the -regret-out mode end to end on
// a small pairing and checks the report lands on disk with savings.
func TestRegretStudyWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout strings.Builder
	err := regretStudy(config{seed: 7, regretCases: 4, regretOut: path, fidelity: "0.25,0.5"}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"suite": "regret-vs-profiling"`, `"lowfi_probes"`, `"savings_usd_pct"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("report missing %s:\n%s", want, b)
		}
	}
	if !strings.Contains(stdout.String(), "savings:") {
		t.Errorf("summary missing savings line:\n%s", stdout.String())
	}
}

// TestWriteReproducer pins the lazy-directory contract and the JSON
// round trip of a saved failure.
func TestWriteReproducer(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "failures")
	c := conformance.Case{Name: "repro", Seed: 3, Job: "resnet-cifar10",
		Types: []string{"c5.xlarge"}, MaxNodes: 4}
	var stderr strings.Builder
	writeReproducer(&stderr, dir, c.Name, c)
	loaded, err := conformance.LoadCase(filepath.Join(dir, "repro.json"))
	if err != nil {
		t.Fatalf("reproducer did not round-trip: %v (log: %s)", err, stderr.String())
	}
	if loaded.Seed != c.Seed || loaded.Job != c.Job {
		t.Errorf("loaded %+v, want %+v", loaded, c)
	}

	// An unwritable destination must be reported, not panic.
	stderr.Reset()
	writeReproducer(&stderr, filepath.Join(dir, "repro.json"), "x", c)
	if !strings.Contains(stderr.String(), "cannot") {
		t.Errorf("expected an error report for a file-as-directory path, got: %q", stderr.String())
	}
}
