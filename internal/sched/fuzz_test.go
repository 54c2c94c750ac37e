package sched

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"mlcd/internal/search"
)

// FuzzReplayJournal feeds arbitrary bytes to the journal replayer as a
// journal's only segment: it must never panic, whatever garbage a crashed
// or truncated file left behind, and whatever it recovers must be
// internally consistent.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"type":"submit","id":"job-0001","job":"resnet-cifar10","tenant":"acme","budget_usd":100}` + "\n"))
	f.Add([]byte(`{"type":"probe","job":"resnet-cifar10","observation":{"type":"c5.4xlarge","nodes":4,"throughput_samples_per_sec":250},"duration_sec":600,"cost_usd":2.18}` + "\n"))
	f.Add([]byte(`{"type":"submit","id":"job-0002"}` + "\n" + `{"type":"done","id":"job-0002","status":"done"}` + "\n"))
	f.Add([]byte("{\"type\":\"submit\",\"id\":\"job-0003\"}\n{\"type\":\"sub")) // torn tail
	// A probe record torn mid-observation — the crash-mid-append shape the
	// scheduler's warm start must shrug off.
	f.Add([]byte(`{"type":"submit","id":"job-0004","job":"resnet-cifar10","budget_usd":100}` + "\n" +
		`{"type":"probe","job":"resnet-cifar10","observation":{"type":"c5.4xlarge","nodes":4,"throughput_samples_per_sec":250},"duration_sec":600,"cost_usd":2.18}` + "\n" +
		`{"type":"probe","job":"resnet-cifar10","observation":{"type":"c5.4xlarge","nodes":8,"throughput`))
	f.Add([]byte("\x00\xff garbage\n"))
	f.Add([]byte(`{"type":"done","id":"job-9999","status":"failed","error":"boom"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(segmentPattern, 1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := ReplaySegmented(dir)
		if err != nil {
			return // rejecting corrupt journals is fine; panicking is not
		}
		if st.MaxID < 0 {
			t.Fatalf("replay yielded negative MaxID %d", st.MaxID)
		}
	})
}

// FuzzReplaySegmented feeds arbitrary bytes to the journal replayer —
// a snapshot plus two segment files, any of which a crash or a bad disk
// may have corrupted anywhere. The replayer must recover or reject
// cleanly, never panic, never resurrect a torn record as a duplicate
// submission, and must be deterministic: replaying the same surviving
// bytes twice yields the same state.
func FuzzReplaySegmented(f *testing.F) {
	snap := []byte(`{"version":1,"through":1,"max_id":2,"subs":[{"ID":"job-0001","Job":"resnet-cifar10","Tenant":"acme","BudgetUSD":100}]}`)
	seg := []byte(`{"type":"submit","id":"job-0002","job":"resnet-cifar10","tenant":"acme","budget_usd":100}` + "\n")
	segDone := []byte(`{"type":"done","id":"job-0002","status":"done"}` + "\n")
	f.Add([]byte(""), []byte(""), []byte(""))
	f.Add(snap, seg, segDone)
	f.Add(snap, seg, []byte(`{"type":"sub`))                          // torn tail in the last segment
	f.Add(snap[:40], seg, segDone)                                    // torn snapshot
	f.Add(snap, append(append([]byte{}, seg...), seg...), []byte("")) // duplicate submit lines
	f.Add([]byte(`{"version":1,"through":9,"max_id":0}`), seg, segDone)
	f.Add([]byte("\x00\xff"), []byte("\x00garbage\n"), []byte("{}\n"))

	f.Fuzz(func(t *testing.T, snapshot, seg2, seg3 []byte) {
		dir := t.TempDir()
		for _, fpart := range []struct {
			name string
			data []byte
		}{
			{snapshotName, snapshot},
			{"seg-00000002.jnl", seg2},
			{"seg-00000003.jnl", seg3},
		} {
			if err := os.WriteFile(filepath.Join(dir, fpart.name), fpart.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, _, err := ReplaySegmented(dir)
		if err != nil {
			// Rejecting corruption is fine; panicking or limping on with a
			// half-applied state visible to the caller is not (the scheduler
			// refuses to start on a replay error).
			return
		}
		if st.MaxID < 0 {
			t.Fatalf("negative MaxID %d", st.MaxID)
		}
		seen := make(map[string]bool, len(st.Subs))
		for _, sub := range st.Subs {
			if seen[sub.ID] {
				t.Fatalf("replay resurrected duplicate submission %q", sub.ID)
			}
			seen[sub.ID] = true
		}
		// Determinism: the same bytes replay to the same state.
		st2, _, err := ReplaySegmented(dir)
		if err != nil {
			t.Fatalf("second replay of identical bytes failed: %v", err)
		}
		if len(st2.Subs) != len(st.Subs) || len(st2.Probes) != len(st.Probes) || st2.MaxID != st.MaxID {
			t.Fatalf("replay not deterministic: %+v vs %+v", st, st2)
		}
	})
}

// FuzzJournalRoundTrip appends fuzzer-chosen records through the real
// journal (marshal + fsync) and replays them: valid records must survive
// the trip with every field intact.
func FuzzJournalRoundTrip(f *testing.F) {
	f.Add("job-0007", "resnet-cifar10", "acme", 100.0, 9.0, "c5.4xlarge", 4, 250.0, 600.0, 2.18, "done", "")
	f.Add("job-0001", "alexnet-cifar10", "", 0.0, 0.0, "", 0, -1.0, 0.0, 0.0, "failed", "quota exhausted")
	f.Add("", "", "", -1.0, -1.0, "weird\ntype", -5, 0.0, -2.0, -3.0, "bogus", "multi\nline")

	f.Fuzz(func(t *testing.T, id, jobName, tenant string, budget, deadline float64,
		typ string, nodes int, tput, dur, cost float64, status, errMsg string) {
		if !utf8.ValidString(id) || !utf8.ValidString(jobName) || !utf8.ValidString(tenant) ||
			!utf8.ValidString(typ) || !utf8.ValidString(status) || !utf8.ValidString(errMsg) {
			// encoding/json replaces invalid UTF-8 on marshal, so byte
			// fidelity is out of scope for those inputs.
			return
		}
		for _, v := range []float64{budget, deadline, tput, dur, cost} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // JSON cannot represent non-finite numbers
			}
		}
		dir := t.TempDir()
		jl, _, err := OpenSegmented(SegmentedConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		records := []journalRecord{
			{Type: "submit", ID: id, Job: jobName, Tenant: tenant, BudgetUSD: budget, DeadlineHours: deadline},
			{Type: "probe", Job: jobName, Observation: &search.SavedObservation{Type: typ, Nodes: nodes, Throughput: tput}, DurationSec: dur, CostUSD: cost},
			{Type: "done", ID: id, Status: Status(status), Error: errMsg},
		}
		for _, rec := range records {
			if err := jl.append(rec); err != nil {
				t.Fatalf("append %+v: %v", rec, err)
			}
		}
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}

		st, _, err := ReplaySegmented(dir)
		if err != nil {
			t.Fatalf("replaying journal the scheduler itself wrote: %v", err)
		}
		if len(st.Subs) != 1 || len(st.Probes) != 1 {
			t.Fatalf("replay = %+v", st)
		}
		sub := st.Subs[0]
		if sub.ID != id || sub.Job != jobName || sub.Tenant != tenant ||
			sub.BudgetUSD != budget || sub.DeadlineHours != deadline {
			t.Fatalf("submit round trip: wrote %+v, read %+v", records[0], sub)
		}
		if sub.Status != Status(status) || sub.Error != errMsg {
			t.Fatalf("done round trip: wrote status=%q err=%q, read %+v", status, errMsg, sub)
		}
		probe := st.Probes[0]
		if probe.Job != jobName || probe.Observation.Type != typ ||
			probe.Observation.Nodes != nodes || probe.Observation.Throughput != tput ||
			probe.DurationSec != dur || probe.CostUSD != cost {
			t.Fatalf("probe round trip: wrote %+v, read %+v", records[1], probe)
		}
	})
}
