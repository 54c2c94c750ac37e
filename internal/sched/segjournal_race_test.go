package sched

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mlcd/internal/mlcdsys"
)

// TestSegmentedCloseRacesCompactLoop closes segmented journals while
// their background compaction loops are mid-flight, over and over:
// Close must never deadlock, never leak the loop goroutine, and any
// snapshot.json.tmp a cut-short compaction left behind must be ignored
// and cleared by the next open. Run under -race in CI.
func TestSegmentedCloseRacesCompactLoop(t *testing.T) {
	baseline := goroutineCount()
	dir := t.TempDir()
	for round := 0; round < 20; round++ {
		j, _, err := OpenSegmented(SegmentedConfig{
			Dir:          dir,
			MaxRecords:   2, // rotate constantly so every tick has sealed segments
			CompactEvery: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < 10; i++ {
			rec := journalRecord{Type: "submit", ID: "job-0001", Job: "resnet-cifar10"}
			if err := j.append(rec); err != nil {
				t.Fatalf("round %d append %d: %v", round, i, err)
			}
		}
		// Close races whatever compaction the 1ms ticker has in flight.
		if err := j.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
		if err := j.Close(); err != nil { // idempotent
			t.Fatalf("round %d second close: %v", round, err)
		}
	}
	awaitGoroutines(t, baseline)

	// Whatever the races left on disk, recovery is clean and the live
	// submission survives.
	st, _, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatalf("replay after close races: %v", err)
	}
	if len(st.Subs) != 1 || st.Subs[0].ID != "job-0001" {
		t.Fatalf("recovered state = %+v", st)
	}
	// A fresh open clears any orphaned snapshot temp file.
	j, _, err := OpenSegmented(SegmentedConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	if _, err := os.Stat(filepath.Join(dir, snapshotName+".tmp")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale snapshot tmp survived reopen: %v", err)
	}
}

// TestSegmentedConcurrentCompactions: compactions started at once,
// beside appends, run one at a time, so none installs a snapshot older
// than the segments another has deleted and every record survives.
func TestSegmentedConcurrentCompactions(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenSegmented(SegmentedConfig{Dir: dir, MaxRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := j.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	const n = 100
	for i := 1; i <= n; i++ {
		if err := j.append(journalRecord{Type: "submit", ID: fmt.Sprintf("job-%04d", i), Job: "resnet-cifar10"}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != n {
		t.Fatalf("replayed %d of %d appended submissions", len(st.Subs), n)
	}
}

// TestSchedulerShutdownRacesCompaction is the same race one layer up:
// a scheduler is shut down while compactions fire every millisecond
// beside its appends, each rotating whatever the search appended since
// the last, and must leave no goroutines behind — its journal's own
// compaction loop included.
func TestSchedulerShutdownRacesCompaction(t *testing.T) {
	baseline := goroutineCount()
	dir := t.TempDir()
	for round := 0; round < 5; round++ {
		s, err := New(newTestSystem(t), Config{Workers: 1, JournalDir: dir})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = s.journal.Compact() // refused once Shutdown closes the journal
				}
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d shutdown: %v", round, err)
		}
	}
	awaitGoroutines(t, baseline)
	if _, _, err := ReplaySegmented(dir); err != nil {
		t.Fatalf("replay after shutdown races: %v", err)
	}
}
