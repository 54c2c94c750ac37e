package sched

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/profiler"
	"mlcd/internal/workload"
)

func newTestSystem(t *testing.T) *mlcdsys.System {
	t.Helper()
	cat, err := cloud.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return mlcdsys.New(mlcdsys.Config{
		Catalog: cat,
		Limits:  cloud.SpaceLimits{MaxCPUNodes: 40, MaxGPUNodes: 1},
		Seed:    1,
	})
}

// profilerFunc adapts a function to profiler.Profiler.
type profilerFunc func(workload.Job, cloud.Deployment) profiler.Result

func (f profilerFunc) Profile(j workload.Job, d cloud.Deployment) profiler.Result { return f(j, d) }

func awaitStatus(t *testing.T, s *Scheduler, id string, want Status) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := s.Get(id); ok && j.Status == want {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := s.Get(id)
	t.Fatalf("job %s never reached %s (now %s, err %q)", id, want, j.Status, j.Err)
	return Job{}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(newTestSystem(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Submit("no-such-job", "t", mlcdsys.Requirements{Budget: 10}); err == nil {
		t.Fatal("unknown job accepted")
	}
	conflicting := mlcdsys.Requirements{Budget: 10, Deadline: time.Hour}
	if _, err := s.Submit("resnet-cifar10", "t", conflicting); err == nil {
		t.Fatal("conflicting requirements accepted")
	}
	job, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Status != StatusQueued || job.Tenant != "acme" {
		t.Fatalf("submission = %+v", job)
	}
	done := awaitStatus(t, s, job.ID, StatusDone)
	if done.Report == nil || !done.Report.Satisfied {
		t.Fatalf("report = %+v", done.Report)
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	s, err := New(newTestSystem(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit("resnet-cifar10", "t", mlcdsys.Requirements{Budget: 100}); err != ErrShuttingDown {
		t.Fatalf("submit after close = %v", err)
	}
}

// TestSubmitTenantTooLong: a tenant over MaxTenantLen bytes is refused
// before it takes an ID or a journal line; one of exactly MaxTenantLen
// is admitted as the first job and replays.
func TestSubmitTenantTooLong(t *testing.T) {
	dir := t.TempDir()
	s, err := New(newTestSystem(t), Config{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("t", MaxTenantLen+1)
	if _, err := s.Submit("resnet-cifar10", long, mlcdsys.Requirements{Budget: 100}); !errors.Is(err, ErrTenantTooLong) {
		t.Fatalf("%d-byte tenant: err = %v, want ErrTenantTooLong", len(long), err)
	}
	job, err := s.Submit("resnet-cifar10", long[1:], mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatalf("%d-byte tenant refused: %v", MaxTenantLen, err)
	}
	if job.ID != "job-0001" {
		t.Fatalf("first admitted job is %s, want job-0001: the refusal took an ID", job.ID)
	}
	s.Close()
	st, _, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 1 || st.Subs[0].Tenant != long[1:] {
		t.Fatalf("journal holds %d submissions, want the one admitted", len(st.Subs))
	}
}

// TestJournalRecovery is the crash story end to end: a scheduler is
// killed mid-search with one job running and one queued, then a fresh
// scheduler replays the journal — both jobs finish, and no deployment
// journaled before the crash is ever measured again.
func TestJournalRecovery(t *testing.T) {
	journalDir := filepath.Join(t.TempDir(), "journal")

	// Phase A: let exactly 3 probes measure, then block the 4th forever —
	// the scheduler is abandoned mid-probe, like a process kill.
	requests := make(chan struct{}, 128)
	tokens := make(chan struct{}, 128)
	for i := 0; i < 3; i++ {
		tokens <- struct{}{}
	}
	a, err := New(newTestSystem(t), Config{
		Workers:    1,
		JournalDir: journalDir,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				requests <- struct{}{}
				<-tokens
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := a.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := a.Submit("resnet-cifar10", "globex", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		select {
		case <-requests:
		case <-time.After(30 * time.Second):
			t.Fatalf("probe %d never requested", i+1)
		}
	}
	// Scheduler a is now wedged on its 4th probe and never released: its
	// worker goroutine leaks for the test's lifetime, exactly like a
	// crashed process whose journal survives.

	preCrash, _, err := ReplaySegmented(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(preCrash.Subs) != 2 || preCrash.Subs[0].Status != "" || preCrash.Subs[1].Status != "" {
		t.Fatalf("pre-crash journal subs = %+v", preCrash.Subs)
	}
	if len(preCrash.Probes) != 3 {
		t.Fatalf("pre-crash journal probes = %+v", preCrash.Probes)
	}
	crashKeys := make(map[string]bool)
	for _, p := range preCrash.Probes {
		crashKeys[p.Observation.Type+"|"+string(rune('0'+p.Observation.Nodes))] = true
	}

	// Phase B: a fresh scheduler over the same journal. Both jobs must
	// resume and finish, and none of the journaled deployments may be
	// re-measured — they arrive via the primed cache as warm starts.
	var mu sync.Mutex
	measuredB := make(map[string]int)
	b, err := New(newTestSystem(t), Config{
		Workers:    2,
		JournalDir: journalDir,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				mu.Lock()
				measuredB[d.Type.Name+"|"+string(rune('0'+d.Nodes))]++
				mu.Unlock()
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for _, id := range []string{j1.ID, j2.ID} {
		got, ok := b.Get(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if got.Status != StatusQueued && got.Status != StatusRunning && got.Status != StatusDone {
			t.Fatalf("recovered job %s in state %s", id, got.Status)
		}
	}
	d1 := awaitStatus(t, b, j1.ID, StatusDone)
	d2 := awaitStatus(t, b, j2.ID, StatusDone)
	if d1.Report == nil || d2.Report == nil || !d1.Report.Satisfied || !d2.Report.Satisfied {
		t.Fatalf("recovered reports: %+v / %+v", d1.Report, d2.Report)
	}
	if d1.Tenant != "acme" || d2.Tenant != "globex" {
		t.Fatalf("tenants lost: %q / %q", d1.Tenant, d2.Tenant)
	}

	mu.Lock()
	for key := range measuredB {
		if crashKeys[key] {
			t.Errorf("deployment %s re-profiled after recovery", key)
		}
	}
	mu.Unlock()

	// ID allocation continues past the journal's high-water mark.
	j3, err := b.Submit("resnet-cifar10", "initech", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "job-0003" {
		t.Fatalf("post-recovery ID = %s, want job-0003", j3.ID)
	}
	awaitStatus(t, b, j3.ID, StatusDone)

	// The whole journal must never record the same deployment probe twice
	// — that is the "profiling dollars are paid once" invariant on disk.
	final, _, err := ReplaySegmented(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, p := range final.Probes {
		key := p.Job + "|" + p.Observation.Type + "|" + string(rune('0'+p.Observation.Nodes))
		if seen[key] {
			t.Errorf("probe %s journaled twice", key)
		}
		seen[key] = true
	}
}

// TestCrashRecoveryTruncatedTrailingLine is the crash-mid-append story
// end to end: the process dies while fsyncing a probe record, leaving a
// truncated trailing JSONL line. A fresh scheduler must warm-start
// cleanly — every complete record recovered and never re-measured, the
// torn record dropped and honestly re-measured — and the journal it
// appends afterwards must replay cleanly for the *next* restart.
func TestCrashRecoveryTruncatedTrailingLine(t *testing.T) {
	journalDir := filepath.Join(t.TempDir(), "journal")

	// Phase A: journal 3 probes for two jobs, then abandon the scheduler
	// wedged on its 4th — a process kill with the journal left behind.
	requests := make(chan struct{}, 128)
	tokens := make(chan struct{}, 128)
	a, err := New(newTestSystem(t), Config{
		Workers:    1,
		JournalDir: journalDir,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				requests <- struct{}{}
				<-tokens
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := a.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := a.Submit("resnet-cifar10", "globex", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Release the probes only once both submissions are journaled, so the
	// journal reads submit, submit, probe, probe, probe and the torn last
	// line is always the third probe.
	for i := 0; i < 3; i++ {
		tokens <- struct{}{}
	}
	for i := 0; i < 4; i++ {
		select {
		case <-requests:
		case <-time.After(30 * time.Second):
			t.Fatalf("probe %d never requested", i+1)
		}
	}

	// The crash tears the final record: chop bytes off the active
	// segment so the last journaled probe's line is incomplete.
	intact, _, err := ReplaySegmented(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(intact.Probes) != 3 {
		t.Fatalf("pre-crash journal probes = %+v", intact.Probes)
	}
	seg := segPath(journalDir, 1)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-20); err != nil {
		t.Fatal(err)
	}
	torn, _, err := ReplaySegmented(journalDir)
	if err != nil {
		t.Fatalf("truncated trailing line must replay cleanly: %v", err)
	}
	if len(torn.Subs) != 2 || len(torn.Probes) != 2 {
		t.Fatalf("post-crash journal = %d subs, %d probes; want 2 and 2", len(torn.Subs), len(torn.Probes))
	}
	probeKey := func(typ string, nodes int) string { return typ + "|" + string(rune('0'+nodes)) }
	recovered := make(map[string]bool)
	for _, p := range torn.Probes {
		recovered[probeKey(p.Observation.Type, p.Observation.Nodes)] = true
	}
	tornKey := probeKey(intact.Probes[2].Observation.Type, intact.Probes[2].Observation.Nodes)

	// Phase B: warm start over the torn journal. Both jobs finish; the
	// two intact probes arrive via the primed cache, and the torn third
	// is measured again — dropped, not silently half-trusted.
	var mu sync.Mutex
	measured := make(map[string]int)
	b, err := New(newTestSystem(t), Config{
		Workers:    2,
		JournalDir: journalDir,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				mu.Lock()
				measured[probeKey(d.Type.Name, d.Nodes)]++
				mu.Unlock()
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, b, j1.ID, StatusDone)
	awaitStatus(t, b, j2.ID, StatusDone)
	b.Close()

	mu.Lock()
	for key := range recovered {
		if measured[key] > 0 {
			t.Errorf("recovered deployment %s re-profiled after warm start", key)
		}
	}
	if measured[tornKey] == 0 {
		t.Errorf("torn probe %s never re-measured — a half-written record was trusted", tornKey)
	}
	mu.Unlock()

	// The journal B appended must be whole again: a second restart replays
	// without error and proves both jobs terminal.
	final, _, err := ReplaySegmented(journalDir)
	if err != nil {
		t.Fatalf("journal unreadable after append-over-torn-tail: %v", err)
	}
	for _, sub := range final.Subs {
		if sub.ID == j1.ID || sub.ID == j2.ID {
			if sub.Status != StatusDone {
				t.Errorf("job %s not terminal in repaired journal: %q", sub.ID, sub.Status)
			}
		}
	}
}

func TestShutdownCancelsRunningWithoutTerminalRecord(t *testing.T) {
	journalDir := filepath.Join(t.TempDir(), "journal")
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })

	started := make(chan struct{}, 16)
	s, err := New(newTestSystem(t), Config{
		Workers:    1,
		JournalDir: journalDir,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				started <- struct{}{}
				<-release
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit("resnet-cifar10", "t", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the search is mid-probe, wedged until we release it

	// Expired grace period: Shutdown must cancel the running search and
	// return its context error without waiting for the wedged probe.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("shutdown = %v", err)
	}

	// No terminal record: the job is still owed on restart. The probe is
	// still blocked, so nothing could have raced the journal read.
	st, _, err := ReplaySegmented(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 1 || st.Subs[0].ID != job.ID || st.Subs[0].Status != "" {
		t.Fatalf("journal after shutdown = %+v", st.Subs)
	}
}

func TestUserCancelIsTerminalInJournal(t *testing.T) {
	journalDir := filepath.Join(t.TempDir(), "journal")
	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })

	s, err := New(newTestSystem(t), Config{
		Workers:    1,
		JournalDir: journalDir,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				<-gate
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	running, err := s.Submit("resnet-cifar10", "t", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit("resnet-cifar10", "t", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}

	if got, err := s.Cancel(queued.ID); err != nil || got.Status != StatusCancelled {
		t.Fatalf("cancel queued = %+v, %v", got, err)
	}
	if _, err := s.Cancel(queued.ID); err != ErrFinished {
		t.Fatalf("double cancel = %v", err)
	}
	if _, err := s.Cancel("job-9999"); err != ErrNotFound {
		t.Fatalf("cancel unknown = %v", err)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	once.Do(func() { close(gate) })
	awaitStatus(t, s, running.ID, StatusCancelled)
	s.Close()

	// Both cancellations are terminal on disk: a restart resumes nothing.
	st, _, err := ReplaySegmented(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range st.Subs {
		if sub.Status != StatusCancelled {
			t.Errorf("journaled sub %s status %q, want cancelled", sub.ID, sub.Status)
		}
	}
	restarted, err := New(newTestSystem(t), Config{Workers: 1, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if got, _ := restarted.Get(running.ID); got.Status != StatusCancelled {
		t.Fatalf("restarted status = %s", got.Status)
	}
	if st := restarted.Stats(); st.JobsByStatus[StatusCancelled] != 2 || st.QueueDepth != 0 {
		t.Fatalf("restarted stats = %+v", st)
	}
}

// TestRecoveredMenuDropStaysFailed: a recovered job whose menu entry is
// gone fails on restart, and that failure is journaled — a later restart
// with the full menu must not bring it back to life.
func TestRecoveredMenuDropStaysFailed(t *testing.T) {
	journalDir := filepath.Join(t.TempDir(), "journal")

	// Crash with six jobs owed: one held at its first probe, five queued.
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	a, err := New(newTestSystem(t), Config{
		Workers:    1,
		JournalDir: journalDir,
		ProfilerMiddleware: func(inner profiler.Profiler) profiler.Profiler {
			return profilerFunc(func(j workload.Job, d cloud.Deployment) profiler.Result {
				select {
				case started <- struct{}{}:
				default:
				}
				<-gate
				return inner.Profile(j, d)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := a.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = a.Shutdown(ctx)
	close(gate)
	a.Close()

	// Restart with resnet-cifar10 gone from the menu: every job fails.
	menu := DefaultMenu()
	delete(menu, "resnet-cifar10")
	b, err := New(newTestSystem(t), Config{Workers: 1, JournalDir: journalDir, Jobs: menu})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got, _ := b.Get(id); got.Status != StatusFailed || !strings.Contains(got.Err, "no longer in the menu") {
			t.Fatalf("job %s after menu drop = %s %q", id, got.Status, got.Err)
		}
	}
	b.Close()

	// The failures are on disk, so a restart with the full menu resumes
	// nothing.
	st, _, err := ReplaySegmented(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range st.Subs {
		if sub.Status != StatusFailed {
			t.Fatalf("journaled sub %s status %q, want failed", sub.ID, sub.Status)
		}
	}
	c, err := New(newTestSystem(t), Config{Workers: 1, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, id := range ids {
		if got, _ := c.Get(id); got.Status != StatusFailed {
			t.Errorf("job %s after the full menu returned = %s", id, got.Status)
		}
	}
	if st := c.Stats(); st.QueueDepth != 0 || st.JobsByStatus[StatusFailed] != len(ids) {
		t.Fatalf("restarted stats = %+v", st)
	}
}

func TestStatsShape(t *testing.T) {
	s, err := New(newTestSystem(t), Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, s, job.ID, StatusDone)
	st := s.Stats()
	if st.Workers != 3 || st.JobsByStatus[StatusDone] != 1 || st.Cache.Misses == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !strings.HasPrefix(job.ID, "job-") {
		t.Fatalf("job id = %q", job.ID)
	}
}
