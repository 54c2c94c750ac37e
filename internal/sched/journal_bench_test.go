package sched

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mlcd/internal/faultfs"
)

// The two benchmarks below are a matched pair gated by `benchgate
// compare -pair` (see scripts/bench_compare.sh): the fault-injection
// refactor routed every journal byte through the faultfs.FS interface,
// and the pair proves that in the fault-free production configuration
// (faultfs.OS, a zero-cost passthrough) the indirection costs at most
// 2% over a hand-written append loop. Both run the identical record,
// write, fsync cycle under a mutex — the only difference is the
// interface hop.

// benchJournalDir puts the journal on tmpfs when the host has one:
// on rotating or virtualised storage a single fsync costs ~100µs with
// tens of percent of run-to-run jitter, which would drown the
// nanosecond-scale interface hop the pair gate measures. On tmpfs the
// fsync is near-free and stable, so the write/indirection path —
// the part the refactor actually touched — dominates the timing.
func benchJournalDir(b *testing.B) string {
	if info, err := os.Stat("/dev/shm"); err == nil && info.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "mlcd-journal-bench-*")
		if err == nil {
			b.Cleanup(func() { _ = os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

func benchJournalRecord() journalRecord {
	return journalRecord{
		Type:      "submit",
		ID:        "job-0042",
		Job:       "resnet-cifar10",
		Tenant:    "acme",
		BudgetUSD: 100,
	}
}

// BenchmarkJournalAppendDirect is the pre-faultfs append path: one Write
// straight to a raw *os.File, no filesystem interface in between. It
// exists only as the baseline for BenchmarkJournalAppend.
func BenchmarkJournalAppendDirect(b *testing.B) {
	path := filepath.Join(benchJournalDir(b), "journal.jnl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var mu sync.Mutex
	rec := benchJournalRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		buf, err := json.Marshal(rec)
		if err != nil {
			mu.Unlock()
			b.Fatal(err)
		}
		buf = append(buf, '\n')
		if _, err := f.Write(buf); err != nil {
			mu.Unlock()
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			mu.Unlock()
			b.Fatal(err)
		}
		mu.Unlock()
	}
}

// BenchmarkJournalAppend is the same workload through the production
// journal: OpenSegmented over faultfs.OS, so every Write and Sync
// crosses the injectable-filesystem interface. MaxRecords exceeds
// b.N, so no segment rotation lands inside the timed cycle.
func BenchmarkJournalAppend(b *testing.B) {
	j, _, err := OpenSegmented(SegmentedConfig{Dir: benchJournalDir(b), MaxRecords: b.N + 1, FS: faultfs.OS{}})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	rec := benchJournalRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
