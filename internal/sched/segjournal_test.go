package sched

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/faultfs"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

// appendDeadJobs journals n submit+done pairs starting at id seq start —
// the "dead history" compaction exists to shed.
func appendDeadJobs(t *testing.T, j *SegmentedJournal, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job-%04d", start+i)
		if err := j.append(journalRecord{Type: "submit", ID: id, Job: "resnet-cifar10", Tenant: "t"}); err != nil {
			t.Fatal(err)
		}
		if err := j.append(journalRecord{Type: "done", ID: id, Status: StatusDone}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentedRoundTripAndRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jnl")
	j, _, err := OpenSegmented(SegmentedConfig{Dir: dir, MaxRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	obs := search.SavedObservation{Type: "c5.4xlarge", Nodes: 2, Throughput: 100}
	if err := j.append(journalRecord{Type: "submit", ID: "job-0001", Job: "resnet-cifar10", Tenant: "acme", BudgetUSD: 50}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: "probe", Job: "resnet-cifar10", Observation: &obs, CostUSD: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: "submit", ID: "job-0002", Job: "resnet-cifar10", Tenant: "globex"}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: "done", ID: "job-0001", Status: StatusDone}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 2 {
		t.Fatalf("4 appends at MaxRecords=3 left %d segment(s), want rotation", len(seqs))
	}

	st, rs, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 2 || st.MaxID != 2 || len(st.Probes) != 1 {
		t.Fatalf("replayed state = %+v", st)
	}
	if st.Subs[0].Status != StatusDone || st.Subs[1].Status != "" {
		t.Fatalf("statuses = %q / %q", st.Subs[0].Status, st.Subs[1].Status)
	}
	if rs.TailRecords != 4 || rs.SnapshotSubs != 0 {
		t.Fatalf("replay stats = %+v, want 4 tail records pre-compaction", rs)
	}
}

// TestSegmentedRecoveryFlatAsHistoryGrows is the acceptance criterion:
// after compaction, recovery replays only the live-job snapshot plus
// the (empty) tail — the same work whether 50 or 500 dead jobs came
// before. A design that replays history would see recovery cost grow
// 10× here.
func TestSegmentedRecoveryFlatAsHistoryGrows(t *testing.T) {
	replayCost := func(dead int) (ReplayStats, JournalState) {
		dir := filepath.Join(t.TempDir(), "jnl")
		j, _, err := OpenSegmented(SegmentedConfig{Dir: dir, MaxRecords: 16})
		if err != nil {
			t.Fatal(err)
		}
		// One live job first, then the dead pile, then compact.
		if err := j.append(journalRecord{Type: "submit", ID: "job-0001", Job: "resnet-cifar10", Tenant: "live"}); err != nil {
			t.Fatal(err)
		}
		appendDeadJobs(t, j, 2, dead)
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		st, rs, err := ReplaySegmented(dir)
		if err != nil {
			t.Fatal(err)
		}
		return rs, st
	}

	small, stSmall := replayCost(50)
	large, stLarge := replayCost(500)

	if small != large {
		t.Fatalf("recovery cost grew with dead history: 50 dead → %+v, 500 dead → %+v", small, large)
	}
	if small.SnapshotSubs != 1 || small.TailRecords != 0 {
		t.Fatalf("compacted recovery = %+v, want exactly the one live job and no tail", small)
	}
	if len(stSmall.Subs) != 1 || stSmall.Subs[0].ID != "job-0001" || stSmall.Subs[0].Status != "" {
		t.Fatalf("live job lost in compaction: %+v", stSmall.Subs)
	}
	// Dead jobs are shed, but their ID high-water mark is not: a
	// restarted scheduler must never re-mint a dead job's ID.
	if stSmall.MaxID != 51 || stLarge.MaxID != 501 {
		t.Fatalf("MaxID = %d / %d, want 51 / 501", stSmall.MaxID, stLarge.MaxID)
	}
}

// TestSegmentedCompactDedupesProbes: compaction keeps one probe per
// (job, type, nodes) — the first, matching the cache's Prime semantics.
func TestSegmentedCompactDedupesProbes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jnl")
	j, _, err := OpenSegmented(SegmentedConfig{Dir: dir, MaxRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		obs := search.SavedObservation{Type: "c5.4xlarge", Nodes: 1 + i%2, Throughput: float64(100 + i)}
		if err := j.append(journalRecord{Type: "probe", Job: "resnet-cifar10", Observation: &obs, CostUSD: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, rs, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Probes) != 2 {
		t.Fatalf("probes after compaction = %d, want 2 distinct deployments", len(st.Probes))
	}
	if st.Probes[0].Observation.Throughput != 100 || st.Probes[1].Observation.Throughput != 101 {
		t.Fatalf("compaction kept the wrong duplicates: %+v", st.Probes)
	}
	if rs.SnapshotProbes != 2 {
		t.Fatalf("replay stats = %+v", rs)
	}
}

// TestSegmentedCompactToleratesTornSealedSegment is the PR 4 regression
// satellite: a sealed segment whose tail was torn by a crash (and which
// the repair path may or may not have truncated yet) must compact
// cleanly — complete records kept, the torn one dropped.
func TestSegmentedCompactToleratesTornSealedSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jnl")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Sealed segment 1: two complete records, then a torn third — the
	// fsync the crash interrupted.
	torn := `{"type":"submit","id":"job-0001","job":"resnet-cifar10","tenant":"a"}` + "\n" +
		`{"type":"done","id":"job-0001","status":"done"}` + "\n" +
		`{"type":"submit","id":"job-00`
	if err := os.WriteFile(segPath(dir, 1), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	// Active segment 2: a complete record appended by a later process.
	if err := os.WriteFile(segPath(dir, 2),
		[]byte(`{"type":"submit","id":"job-0003","job":"resnet-cifar10","tenant":"b"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	j, _, err := OpenSegmented(SegmentedConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatalf("compacting over a torn sealed segment: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, rs, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 1 || st.Subs[0].ID != "job-0003" {
		t.Fatalf("post-compaction state = %+v, want only the live job-0003", st.Subs)
	}
	if st.MaxID != 3 {
		t.Fatalf("MaxID = %d, want 3", st.MaxID)
	}
	if rs.TailRecords != 0 || rs.SnapshotSubs != 1 {
		t.Fatalf("replay stats = %+v, want everything in the snapshot", rs)
	}
	if seqs, _ := listSegments(faultfs.OS{}, dir); len(seqs) != 1 {
		t.Fatalf("segments after compaction = %v, want just the fresh active one", seqs)
	}
}

// TestSegmentedOpenSealsGarbledLastLine: a complete but undecodable last
// line in the active segment ends in a newline, so the tail repair keeps
// it and the fold tolerates it as a segment's last line. An append
// behind it would leave it mid-segment, where every later open refuses
// it as corruption and loses the acknowledged record; the open must
// seal the segment and append to a fresh one.
func TestSegmentedOpenSealsGarbledLastLine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jnl")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seg := `{"type":"submit","id":"job-0001","job":"resnet-cifar10","tenant":"a"}` + "\n" +
		`{"type":"submit","id":"job-0002","job":"resnet-cifar10","tenant":"a"` + "\n"
	if err := os.WriteFile(segPath(dir, 1), []byte(seg), 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := OpenSegmented(SegmentedConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 1 || st.Subs[0].ID != "job-0001" {
		t.Fatalf("first open state = %+v, want job-0001 alone", st.Subs)
	}
	if err := j.append(journalRecord{Type: "submit", ID: "job-0003", Job: "resnet-cifar10", Tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, st, err = OpenSegmented(SegmentedConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopening after an append behind a garbled line: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 2 || st.Subs[0].ID != "job-0001" || st.Subs[1].ID != "job-0003" || st.MaxID != 3 {
		t.Fatalf("reopened state = %+v (MaxID %d), want job-0001 and job-0003", st.Subs, st.MaxID)
	}
	if _, _, err := ReplaySegmented(dir); err != nil {
		t.Fatalf("replaying: %v", err)
	}
}

// TestSegmentedCrashBetweenSnapshotAndDelete: the crash window after the
// snapshot rename but before sealed segments are deleted must be
// idempotent — replay skips segments the snapshot already covers.
func TestSegmentedCrashBetweenSnapshotAndDelete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jnl")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(faultfs.OS{}, dir, snapshotFile{
		Version: 1, Through: 1, MaxID: 1,
		Subs: []RecoveredSub{{ID: "job-0001", Job: "resnet-cifar10", Tenant: "a"}},
	}); err != nil {
		t.Fatal(err)
	}
	// Segment 1 is already folded into the snapshot but survived the
	// crash; replaying it would double-register job-0001.
	if err := os.WriteFile(segPath(dir, 1),
		[]byte(`{"type":"submit","id":"job-0001","job":"resnet-cifar10","tenant":"a"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 2),
		[]byte(`{"type":"submit","id":"job-0002","job":"resnet-cifar10","tenant":"b"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, rs, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 2 || st.Subs[0].ID != "job-0001" || st.Subs[1].ID != "job-0002" {
		t.Fatalf("replayed subs = %+v, want job-0001 (once) and job-0002", st.Subs)
	}
	if rs.TailSegments != 1 {
		t.Fatalf("replay stats = %+v, want the covered segment skipped", rs)
	}
}

// TestSchedulerSegmentedJournalRecovery drives the segmented journal
// through the real scheduler: jobs run to done, the journal writes past
// its first segment and compacts, and a restarted scheduler neither
// loses live jobs nor re-mints IDs.
func TestSchedulerSegmentedJournalRecovery(t *testing.T) {
	mem := faultfs.NewMem()
	const dir = "jnl"
	a, err := New(newTestSystem(t), Config{Workers: 1, JournalDir: dir, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := a.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, a, j1.ID, StatusDone)
	// Health records fill the first segment, so the journal rotates.
	for i := 0; i < defaultMaxRecords; i++ {
		if err := a.ProbeJournal(); err != nil {
			t.Fatal(err)
		}
	}
	if seqs, _ := listSegments(mem, dir); len(seqs) < 2 {
		t.Fatalf("segments = %v, want a rotation past the first", seqs)
	}
	if err := a.journal.Compact(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if seqs, _ := listSegments(mem, dir); len(seqs) != 1 {
		t.Fatalf("segments after compaction = %v, want just the active one", seqs)
	}

	st, _, err := ReplaySegmentedFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	compacted := make(map[string]bool)
	for _, p := range st.Probes {
		compacted[fmt.Sprintf("%s|%d", p.Observation.Type, p.Observation.Nodes)] = true
	}
	if len(compacted) == 0 {
		t.Fatal("first run journaled no probes")
	}

	var mu sync.Mutex
	measured := make(map[string]bool)
	b, err := New(newTestSystem(t), Config{
		Workers: 1, JournalDir: dir, FS: mem,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				mu.Lock()
				measured[fmt.Sprintf("%s|%d", d.Type.Name, d.Nodes)] = true
				mu.Unlock()
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// The done job was compacted away — dead history — but its ID
	// sequence must not be reused.
	j2, err := b.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID != "job-0002" {
		t.Fatalf("post-compaction ID = %s, want job-0002", j2.ID)
	}
	done := awaitStatus(t, b, j2.ID, StatusDone)
	if done.Report == nil || !done.Report.Satisfied {
		t.Fatalf("recovered report = %+v", done.Report)
	}
	// The first run's probes survived compaction and primed the cache:
	// the repeat search may explore NEW deployments, but must never
	// re-measure one the journal already paid for.
	mu.Lock()
	defer mu.Unlock()
	for key := range measured {
		if compacted[key] {
			t.Errorf("deployment %s re-profiled despite compacted journal", key)
		}
	}
}

// TestSegmentedBackgroundCompaction: the CompactEvery loop compacts
// without any explicit call.
func TestSegmentedBackgroundCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jnl")
	j, _, err := OpenSegmented(SegmentedConfig{Dir: dir, MaxRecords: 4, CompactEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	appendDeadJobs(t, j, 1, 20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := readSnapshot(faultfs.OS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Through > 0 && snap.MaxID == 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never caught up: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverCompactsByDefault: a scheduler whose config sets only
// JournalDir runs its journal's compaction loop, once a minute.
func TestRecoverCompactsByDefault(t *testing.T) {
	s, err := Recover(newTestSystem(t), Config{JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.journal.stop == nil || s.journal.cfg.CompactEvery != time.Minute {
		t.Fatalf("compaction loop running = %t at cadence %v, want a loop every minute",
			s.journal.stop != nil, s.journal.cfg.CompactEvery)
	}
}

// TestSegmentedCompactDeletesCoveredSegments: a segment the snapshot
// already covers, left behind by a crash between an earlier
// compaction's rename and its deletes, is deleted by the next
// compaction, and an open never appends to it (every replay would skip
// the record).
func TestSegmentedCompactDeletesCoveredSegments(t *testing.T) {
	for _, tc := range []struct {
		name string
		segs []int // on disk beside a snapshot covering segment 1
	}{
		{"covered and active", []int{1, 2}},
		{"covered only", []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "jnl")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := writeSnapshot(faultfs.OS{}, dir, snapshotFile{
				Version: 1, Through: 1, MaxID: 1,
				Subs: []RecoveredSub{{ID: "job-0001", Job: "resnet-cifar10", Tenant: "a"}},
			}); err != nil {
				t.Fatal(err)
			}
			lines := map[int]string{ // segment 1 is folded into the snapshot already
				1: `{"type":"submit","id":"job-0001","job":"resnet-cifar10","tenant":"a"}` + "\n",
				2: `{"type":"health"}` + "\n",
			}
			for _, seq := range tc.segs {
				if err := os.WriteFile(segPath(dir, seq), []byte(lines[seq]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			j, st, err := OpenSegmented(SegmentedConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = j.Close() }()
			if len(st.Subs) != 1 || st.Subs[0].ID != "job-0001" {
				t.Fatalf("opened state = %+v, want job-0001 once", st.Subs)
			}
			for i := 2; i <= 4; i++ {
				if err := j.append(journalRecord{Type: "submit", ID: fmt.Sprintf("job-%04d", i), Job: "resnet-cifar10", Tenant: "a"}); err != nil {
					t.Fatal(err)
				}
				if err := j.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			seqs, err := listSegments(faultfs.OS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := readSnapshot(faultfs.OS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(seqs) != 1 || seqs[0] != snap.Through+1 {
				t.Fatalf("segments = %v with the snapshot through %d, want only the active one", seqs, snap.Through)
			}
			replayed, _, err := ReplaySegmented(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(replayed.Subs) != 4 || replayed.MaxID != 4 {
				t.Fatalf("replayed %d subs, MaxID %d; want job-0001 through job-0004", len(replayed.Subs), replayed.MaxID)
			}
		})
	}
}

// TestSegmentedCompactRetriesFailedRemove: a compaction whose Remove of
// a covered segment fails reports it, and the next compaction deletes
// the segment, with no new record in between.
func TestSegmentedCompactRetriesFailedRemove(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.NewMem(), nil)
	j, _, err := OpenSegmented(SegmentedConfig{Dir: "jdir", FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	if err := j.append(journalRecord{Type: "submit", ID: "job-0001", Job: "resnet-cifar10", Tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	inj.SetPlan([]faultfs.Fault{{Op: faultfs.OpRemove, Path: "seg-", Mode: faultfs.ModeEIO, Nth: 1}})
	if err := j.Compact(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("compaction over a failing Remove = %v, want the injected EIO", err)
	}
	if seqs, _ := listSegments(inj, "jdir"); len(seqs) != 2 {
		t.Fatalf("segments = %v, want the covered one left behind", seqs)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := listSegments(inj, "jdir"); len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("segments after the retry = %v, want only the active segment 2", seqs)
	}
	st, _, err := ReplaySegmentedFS(inj, "jdir")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 1 || st.Subs[0].ID != "job-0001" {
		t.Fatalf("replayed subs = %+v, want job-0001", st.Subs)
	}
}
