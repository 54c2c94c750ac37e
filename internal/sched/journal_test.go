package sched

import (
	"os"
	"path/filepath"
	"testing"

	"mlcd/internal/search"
)

// writeFirstSegment creates a journal directory whose only file is a
// first segment holding content, as a crash may have left it.
func writeFirstSegment(t *testing.T, content string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 1), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestJournalRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	jl, _, err := OpenSegmented(SegmentedConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	records := []journalRecord{
		{Type: "submit", ID: "job-0001", Job: "resnet-cifar10", Tenant: "acme", BudgetUSD: 100},
		{Type: "submit", ID: "job-0002", Job: "resnet-cifar10", Tenant: "globex", DeadlineHours: 9},
		{Type: "probe", Job: "resnet-cifar10", Observation: &search.SavedObservation{Type: "c5.4xlarge", Nodes: 3, Throughput: 42}, DurationSec: 600, CostUSD: 2.5},
		{Type: "done", ID: "job-0001", Status: StatusDone},
	}
	for _, rec := range records {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	st, _, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 2 || st.MaxID != 2 {
		t.Fatalf("state = %+v", st)
	}
	if st.Subs[0].Status != StatusDone || st.Subs[1].Status != "" {
		t.Fatalf("statuses = %q / %q", st.Subs[0].Status, st.Subs[1].Status)
	}
	if st.Subs[1].Tenant != "globex" || st.Subs[1].DeadlineHours != 9 {
		t.Fatalf("sub[1] = %+v", st.Subs[1])
	}
	if len(st.Probes) != 1 || st.Probes[0].Observation.Nodes != 3 || st.Probes[0].CostUSD != 2.5 {
		t.Fatalf("probes = %+v", st.Probes)
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	st, _, err := ReplaySegmented(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(st.Subs) != 0 || len(st.Probes) != 0 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	dir := writeFirstSegment(t, `{"type":"submit","id":"job-0001","job":"resnet-cifar10","budget_usd":100}
{"type":"probe","job":"resnet-cifar10","obser`) // crashed mid-append
	st, _, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(st.Subs) != 1 || st.Subs[0].ID != "job-0001" || st.Subs[0].Status != "" {
		t.Fatalf("state = %+v", st)
	}
}

// TestJournalTornTailRepairedOnOpen pins the append-after-crash story:
// reopening a journal whose final line is torn must truncate the torn
// bytes first, so new records never concatenate onto them and the
// *next* replay still parses. Without the repair the journal survives
// one crash but not two.
func TestJournalTornTailRepairedOnOpen(t *testing.T) {
	dir := writeFirstSegment(t, `{"type":"submit","id":"job-0001","job":"resnet-cifar10","budget_usd":100}
{"type":"probe","job":"resnet-cifar10","obser`) // crashed mid-append
	jl, _, err := OpenSegmented(SegmentedConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.append(journalRecord{Type: "done", ID: "job-0001", Status: StatusDone}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatalf("journal corrupted by appending after a torn tail: %v", err)
	}
	if len(st.Subs) != 1 || st.Subs[0].Status != StatusDone {
		t.Fatalf("state = %+v", st)
	}
	if len(st.Probes) != 0 {
		t.Fatalf("torn probe resurrected: %+v", st.Probes)
	}
}

// TestJournalRepairWholeFileTorn covers the degenerate repair: a segment
// holding nothing but one torn line truncates to empty.
func TestJournalRepairWholeFileTorn(t *testing.T) {
	dir := writeFirstSegment(t, `{"type":"sub`)
	jl, _, err := OpenSegmented(SegmentedConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(segPath(dir, 1)); err != nil || info.Size() != 0 {
		t.Fatalf("torn segment not truncated to empty: %v, %v", info, err)
	}
	st, _, err := ReplaySegmented(dir)
	if err != nil || len(st.Subs) != 0 || len(st.Probes) != 0 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestJournalMidFileCorruptionRejected(t *testing.T) {
	dir := writeFirstSegment(t, `{"type":"submit","id":"job-0001","job":"resnet-cifar10"}
NOT JSON AT ALL
{"type":"done","id":"job-0001","status":"done"}
`)
	if _, _, err := ReplaySegmented(dir); err == nil {
		t.Fatal("mid-file corruption must be an error, not silent data loss")
	}
}
