package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rawBench mimics `go test -bench` output across two packages, with a
// -count=3 repeated benchmark, allocation counters, a custom metric,
// and a GOMAXPROCS name suffix.
const rawBench = `goos: linux
goarch: amd64
pkg: mlcd
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkFig01a 	       1	    474882 ns/op	     42.35 price-spread-x
BenchmarkHeterBOSearch 	     400	    954238 ns/op
BenchmarkHeterBOSearch 	     400	    937047 ns/op
BenchmarkHeterBOSearch 	     400	    950331 ns/op
PASS
ok  	mlcd	2.1s
goos: linux
goarch: amd64
pkg: mlcd/internal/core
BenchmarkNextCandidate-4 	    1000	     16865 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	mlcd/internal/core	0.5s
`

func TestParseAndAggregate(t *testing.T) {
	samples, err := parseBench(strings.NewReader(rawBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d samples, want 5", len(samples))
	}
	rows := aggregate(samples)
	if len(rows) != 3 {
		t.Fatalf("aggregated into %d rows, want 3 (duplicates must collapse)", len(rows))
	}

	fig := rows[0]
	if fig.Name != "BenchmarkFig01a" || fig.Package != "mlcd" || fig.Samples != 1 {
		t.Fatalf("row 0 = %+v", fig)
	}
	if fig.NsMedian != nil {
		t.Fatalf("single-sample row carries a median: %+v", fig)
	}
	if got := fig.Metrics["price-spread-x"]; got != 42.35 {
		t.Fatalf("custom metric = %v, want 42.35", got)
	}

	search := rows[1]
	if search.Name != "BenchmarkHeterBOSearch" || search.Samples != 3 {
		t.Fatalf("row 1 = %+v", search)
	}
	if search.NsPerOp != 937047 {
		t.Fatalf("ns_per_op = %v, want the min 937047", search.NsPerOp)
	}
	if search.NsMedian == nil || *search.NsMedian != 950331 {
		t.Fatalf("median = %v, want 950331", search.NsMedian)
	}

	next := rows[2]
	if next.Name != "BenchmarkNextCandidate" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", next.Name)
	}
	if next.Package != "mlcd/internal/core" {
		t.Fatalf("package = %q", next.Package)
	}
	if next.AllocsPerOp == nil || *next.AllocsPerOp != 0 || next.BytesPerOp == nil || *next.BytesPerOp != 0 {
		t.Fatalf("alloc counters not captured: %+v", next)
	}
}

func TestFmtEmitsRecordWithSpeedup(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := runFmt([]string{"-out", out}, strings.NewReader(rawBench), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 3 {
		t.Fatalf("emitted %d rows, want 3", len(rec.Benchmarks))
	}
	// The record holds benchmark rows only: no frozen cross-machine
	// reference or speedup ratios.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("record keys = %d, want only benchmarks:\n%s", len(keys), buf)
	}
}

func TestFmtRejectsEmptyInput(t *testing.T) {
	if err := runFmt(nil, strings.NewReader("PASS\nok mlcd 1s\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("want error on input with no benchmark lines")
	}
}

// writeRecord drops a minimal benchmark JSON file for compare tests.
func writeRecord(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareMinCollapsesDuplicateRows(t *testing.T) {
	// Duplicate rows in the old record (the PR4 schema) must collapse by
	// min, so the gate compares 1000 — not 1500 — against the fresh 1080:
	// an 8% regression, inside the 10% allowance.
	old := writeRecord(t, "old.json", `{"benchmarks": [
		{"name": "BenchmarkHeterBOSearch", "ns_per_op": 1500},
		{"name": "BenchmarkHeterBOSearch", "ns_per_op": 1000},
		{"name": "BenchmarkNextCandidate", "ns_per_op": 100}
	]}`)
	fresh := writeRecord(t, "new.json", `{"benchmarks": [
		{"name": "BenchmarkHeterBOSearch", "ns_per_op": 1080},
		{"name": "BenchmarkNextCandidate", "ns_per_op": 60}
	]}`)
	var out bytes.Buffer
	if err := runCompare([]string{"-old", old, "-new", fresh}, &out); err != nil {
		t.Fatalf("gate failed on an 8%% delta: %v\n%s", err, out.String())
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	old := writeRecord(t, "old.json", `{"benchmarks": [
		{"name": "BenchmarkHeterBOSearch", "ns_per_op": 1000},
		{"name": "BenchmarkNextCandidate", "ns_per_op": 100}
	]}`)
	fresh := writeRecord(t, "new.json", `{"benchmarks": [
		{"name": "BenchmarkHeterBOSearch", "ns_per_op": 1200},
		{"name": "BenchmarkNextCandidate", "ns_per_op": 90}
	]}`)
	var out bytes.Buffer
	err := runCompare([]string{"-old", old, "-new", fresh}, &out)
	if err == nil {
		t.Fatalf("20%% regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkHeterBOSearch") {
		t.Fatalf("failure does not name the regressed benchmark: %v", err)
	}
}

func TestCompareFailsOnMissingWatchedBenchmark(t *testing.T) {
	old := writeRecord(t, "old.json", `{"benchmarks": [
		{"name": "BenchmarkHeterBOSearch", "ns_per_op": 1000},
		{"name": "BenchmarkNextCandidate", "ns_per_op": 100}
	]}`)
	fresh := writeRecord(t, "new.json", `{"benchmarks": [
		{"name": "BenchmarkHeterBOSearch", "ns_per_op": 900}
	]}`)
	var out bytes.Buffer
	if err := runCompare([]string{"-old", old, "-new", fresh}, &out); err == nil {
		t.Fatal("missing watched benchmark passed the gate")
	}
}

func TestCompareAgainstCommittedPR4Record(t *testing.T) {
	// The real previous record must load, and its three duplicate
	// HeterBOSearch rows must collapse to the 937047 min.
	mins, err := loadMins("../../BENCH_PR4.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := mins["BenchmarkHeterBOSearch"]; got != 937047 {
		t.Fatalf("BENCH_PR4 HeterBOSearch min = %v, want 937047", got)
	}
	if got := mins["BenchmarkNextCandidate"]; got != 56693 {
		t.Fatalf("BENCH_PR4 NextCandidate min = %v, want 56693", got)
	}
}

func TestFmtPreservesForeignTopLevelKeys(t *testing.T) {
	// loadgen -merge-key parks storm results next to the benchmark rows;
	// a bench.sh re-run rewrites the record and must carry them over,
	// while dropping the stale reference/speedup sections older records
	// hold.
	out := filepath.Join(t.TempDir(), "bench.json")
	prev := `{"benchmarks": [{"name": "Old", "ns_per_op": 1}],
		"reference": {"Old": 2.0},
		"speedup": {"Old": 2.0},
		"loadgen_kill": {"recovery_sec": 0.4}}`
	if err := os.WriteFile(out, []byte(prev), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runFmt([]string{"-out", out}, strings.NewReader(rawBench), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var merged map[string]json.RawMessage
	if err := json.Unmarshal(buf, &merged); err != nil {
		t.Fatal(err)
	}
	if _, ok := merged["loadgen_kill"]; !ok {
		t.Fatalf("foreign key loadgen_kill dropped on rewrite:\n%s", buf)
	}
	for _, stale := range []string{"reference", "speedup"} {
		if _, ok := merged[stale]; ok {
			t.Fatalf("stale %s section carried forward:\n%s", stale, buf)
		}
	}
	var rec record
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 3 || rec.Benchmarks[0].Name == "Old" {
		t.Fatalf("benchmarks not replaced by the fresh rows: %+v", rec.Benchmarks)
	}
}

func TestComparePairGatesOverhead(t *testing.T) {
	// 1% over a large base: inside the 2% allowance.
	fresh := writeRecord(t, "new.json", `{"benchmarks": [
		{"name": "BenchmarkJournalAppendDirect", "ns_per_op": 100000},
		{"name": "BenchmarkJournalAppend", "ns_per_op": 101000}
	]}`)
	var out bytes.Buffer
	err := runCompare([]string{
		"-new", fresh, "-bench", "",
		"-pair", "BenchmarkJournalAppendDirect=BenchmarkJournalAppend",
	}, &out)
	if err != nil {
		t.Fatalf("1%% overhead failed the 2%% gate: %v\n%s", err, out.String())
	}
}

func TestComparePairFailsOnOverhead(t *testing.T) {
	fresh := writeRecord(t, "new.json", `{"benchmarks": [
		{"name": "BenchmarkJournalAppendDirect", "ns_per_op": 100000},
		{"name": "BenchmarkJournalAppend", "ns_per_op": 104000}
	]}`)
	var out bytes.Buffer
	err := runCompare([]string{
		"-new", fresh, "-bench", "",
		"-pair", "BenchmarkJournalAppendDirect=BenchmarkJournalAppend",
	}, &out)
	if err == nil {
		t.Fatalf("4%% overhead passed the 2%% gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkJournalAppend") {
		t.Fatalf("failure does not name the candidate: %v", err)
	}
}

func TestComparePairAbsoluteFloor(t *testing.T) {
	// On a nanosecond-scale base, 2% is below measurement noise; the
	// 500ns floor keeps the gate honest instead of flaky.
	fresh := writeRecord(t, "new.json", `{"benchmarks": [
		{"name": "BenchmarkJournalAppendDirect", "ns_per_op": 800},
		{"name": "BenchmarkJournalAppend", "ns_per_op": 1200}
	]}`)
	var out bytes.Buffer
	err := runCompare([]string{
		"-new", fresh, "-bench", "",
		"-pair", "BenchmarkJournalAppendDirect=BenchmarkJournalAppend",
	}, &out)
	if err != nil {
		t.Fatalf("+400ns on an 800ns base tripped the gate despite the 500ns floor: %v", err)
	}
}

func TestComparePairFailsOnMissingBenchmark(t *testing.T) {
	fresh := writeRecord(t, "new.json", `{"benchmarks": [
		{"name": "BenchmarkJournalAppendDirect", "ns_per_op": 100000}
	]}`)
	var out bytes.Buffer
	err := runCompare([]string{
		"-new", fresh, "-bench", "",
		"-pair", "BenchmarkJournalAppendDirect=BenchmarkJournalAppend",
	}, &out)
	if err == nil {
		t.Fatal("pair with a missing candidate passed the gate")
	}
}
