package sched

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"mlcd/internal/faultfs"
	"mlcd/internal/mlcdsys"
)

// newFaultScheduler builds a scheduler journaling to a segmented
// journal on an injectable in-memory filesystem.
func newFaultScheduler(t *testing.T, in *faultfs.Injector) *Scheduler {
	t.Helper()
	s, err := New(newTestSystem(t), Config{
		Workers:    1,
		JournalDir: "jdir",
		FS:         in,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJournalAppendErrorFailsSubmit is the no-silent-ack satellite: a
// failed fsync must refuse the submission with ErrJournal, count into
// mlcd_sched_journal_append_errors_total, and advance the error streak;
// the next successful append resets the streak.
func TestJournalAppendErrorFailsSubmit(t *testing.T) {
	in := faultfs.NewInjector(faultfs.NewMem(), nil)
	s := newFaultScheduler(t, in)
	defer s.Close()

	in.SetPlan([]faultfs.Fault{{Op: faultfs.OpSync, Path: "seg-", Mode: faultfs.ModeSyncFail, Nth: 1}})
	_, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("submit with failing fsync = %v, want ErrJournal", err)
	}
	if !errors.Is(err, syscall.EIO) || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("cause not preserved through ErrJournal: %v", err)
	}
	errs := s.sys.Metrics().Counter("mlcd_sched_journal_append_errors_total", "").Value()
	if errs != 1 {
		t.Fatalf("journal_append_errors = %v, want 1", errs)
	}
	if s.JournalErrStreak() != 1 {
		t.Fatalf("streak = %d, want 1", s.JournalErrStreak())
	}
	if _, ok := s.Get("job-0001"); ok {
		t.Fatal("refused submission is visible as a job — a silent ack")
	}

	// The disk recovers: the next submission succeeds and resets the
	// streak.
	job, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s.JournalErrStreak() != 0 {
		t.Fatalf("streak after success = %d, want 0", s.JournalErrStreak())
	}
	// The ID consumed by the refused submission is never reused: its
	// record may still have landed durably (the write preceded the
	// failed fsync), and a reused ID would bind two identities to one
	// journal record.
	if job.ID != "job-0002" {
		t.Fatalf("post-failure ID = %s, want job-0002 (job-0001 stays consumed)", job.ID)
	}
	awaitStatus(t, s, job.ID, StatusDone)
}

// TestJournalIDNotResurrectedAcrossRestart pins the other half of the
// ID-reuse fix: when the refused submission's record DID land durably, a
// restarted scheduler must not hand its ID to a new submission.
func TestJournalIDNotResurrectedAcrossRestart(t *testing.T) {
	mem := faultfs.NewMem()
	in := faultfs.NewInjector(mem, nil)
	s := newFaultScheduler(t, in)
	in.SetPlan([]faultfs.Fault{{Op: faultfs.OpSync, Path: "seg-", Mode: faultfs.ModeSyncFail, Nth: 1}})
	if _, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100}); !errors.Is(err, ErrJournal) {
		t.Fatal("first submit should have been refused")
	}
	in.Heal()
	s.Close() // flushes; the refused submit's bytes reach the file

	s2 := newFaultScheduler(t, faultfs.NewInjector(mem, nil))
	defer s2.Close()
	// job-0001's submit record survived even though the client saw an
	// error; MaxID replay must keep its sequence consumed.
	job, err := s2.Submit("resnet-cifar10", "other", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "job-0001" {
		t.Fatal("restart reused the refused submission's journal identity")
	}
	awaitStatus(t, s2, job.ID, StatusDone)
}

// TestReplayDeduplicatesSubmitRecords: duplicate submit IDs are
// legitimate history (client retry after an append that failed post-
// write); replay must fold them into ONE submission, not two runs.
func TestReplayDeduplicatesSubmitRecords(t *testing.T) {
	dir := writeFirstSegment(t, `{"type":"submit","id":"job-0001","job":"resnet-cifar10","tenant":"acme","budget_usd":100}
{"type":"submit","id":"job-0001","job":"resnet-cifar10","tenant":"acme","budget_usd":100}
{"type":"submit","id":"job-0002","job":"resnet-cifar10","tenant":"beta","budget_usd":50}
`)
	st, _, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 2 {
		t.Fatalf("replayed %d submissions, want 2 (duplicate folded)", len(st.Subs))
	}
	seen := map[string]bool{}
	for _, sub := range st.Subs {
		if seen[sub.ID] {
			t.Fatalf("duplicate recovered submission %s", sub.ID)
		}
		seen[sub.ID] = true
	}
	if st.MaxID != 2 {
		t.Fatalf("MaxID = %d, want 2", st.MaxID)
	}
}

// TestProbeJournalHealthRecords: the liveness probe appends a durable
// no-op record that replay ignores and compaction sheds.
func TestProbeJournalHealthRecords(t *testing.T) {
	mem := faultfs.NewMem()
	in := faultfs.NewInjector(mem, nil)
	s := newFaultScheduler(t, in)
	if err := s.ProbeJournal(); err != nil {
		t.Fatalf("healthy probe: %v", err)
	}

	in.SetPlan([]faultfs.Fault{{Op: faultfs.OpSync, Path: "seg-", Mode: faultfs.ModeSyncFail, Nth: 1, Persist: true}})
	for i := 1; i <= 3; i++ {
		if err := s.ProbeJournal(); !errors.Is(err, ErrJournal) {
			t.Fatalf("probe %d over dead disk = %v, want ErrJournal", i, err)
		}
		if s.JournalErrStreak() != i {
			t.Fatalf("streak after probe %d = %d", i, s.JournalErrStreak())
		}
	}
	in.Heal()
	if err := s.ProbeJournal(); err != nil || s.JournalErrStreak() != 0 {
		t.Fatalf("probe after heal = %v, streak %d", err, s.JournalErrStreak())
	}
	if err := s.journal.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Health records must not resurrect as state.
	st, _, err := ReplaySegmentedFS(mem, "jdir")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 0 || len(st.Probes) != 0 {
		t.Fatalf("health records leaked into state: %d subs, %d probes", len(st.Subs), len(st.Probes))
	}
	snap, err := readSnapshot(mem, "jdir")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Subs) != 0 || len(snap.Probes) != 0 {
		t.Fatalf("health records survived compaction: %+v", snap)
	}
}

// TestProbeJournalNoJournal: a journal-less scheduler has nothing to
// fail — the probe is trivially healthy.
func TestProbeJournalNoJournal(t *testing.T) {
	s, err := New(newTestSystem(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ProbeJournal(); err != nil {
		t.Fatalf("probe without journal = %v", err)
	}
}

// TestHasTenant: submissions and journal recovery both register the
// tenant; unknown tenants stay unknown.
func TestHasTenant(t *testing.T) {
	mem := faultfs.NewMem()
	s := newFaultScheduler(t, faultfs.NewInjector(mem, nil))
	if s.HasTenant("acme") {
		t.Fatal("tenant known before any submission")
	}
	job, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasTenant("acme") || s.HasTenant("ghost") {
		t.Fatal("tenant tracking wrong after submit")
	}
	awaitStatus(t, s, job.ID, StatusDone)
	s.Close()

	s2 := newFaultScheduler(t, faultfs.NewInjector(mem, nil))
	defer s2.Close()
	if !s2.HasTenant("acme") {
		t.Fatal("tenant lost across journal recovery")
	}
}

// TestStaleSnapshotTmpCleared: a crash between writing snapshot.json.tmp
// and renaming it leaves the tmp behind; the next open must discard it.
func TestStaleSnapshotTmpCleared(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, snapshotName+".tmp")
	if err := os.WriteFile(stale, []byte(`{"version":1,"through":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenSegmented(SegmentedConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale tmp still present: %v", err)
	}
	// And it never became state.
	snap, err := readSnapshot(faultfs.OS{}, dir)
	if err != nil || snap.Through != 0 {
		t.Fatalf("stale tmp leaked into snapshot: %+v, %v", snap, err)
	}
}

// TestJournalErrorMessageNamesStorage sanity-checks that the wrapped
// error still tells an operator WHERE it failed.
func TestJournalErrorMessageNamesStorage(t *testing.T) {
	in := faultfs.NewInjector(faultfs.NewMem(), nil)
	s := newFaultScheduler(t, in)
	defer s.Close()
	in.SetPlan([]faultfs.Fault{{Op: faultfs.OpWrite, Path: "seg-", Mode: faultfs.ModeENOSPC, Nth: 1}})
	_, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("error hides the journal: %v", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC identity lost: %v", err)
	}
}
