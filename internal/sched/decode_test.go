package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mlcd/internal/search"
)

// compatDir holds a segment the journal writer produced before replay
// had its own decoder: a submit with tenant and budget, a deadline-only
// submit, a probe, a done record, a failed record whose error quotes a
// name, and a duplicate submit.
const compatDir = "testdata/journal-v1"

// TestReplayCommittedSegment pins the on-disk format: the committed
// segment replays to exactly the state encoding/json gave it, and the
// fast path takes every line but the one with escaped quotes. A writer
// change that sent every record down the slow path fails here, not only
// in a benchmark.
func TestReplayCommittedSegment(t *testing.T) {
	st, rs, err := ReplaySegmented(compatDir)
	if err != nil {
		t.Fatal(err)
	}
	want := JournalState{
		Subs: []RecoveredSub{
			{ID: "job-0001", Job: "resnet-cifar10", Tenant: "acme", BudgetUSD: 100, Status: StatusDone},
			{ID: "job-0002", Job: "bert-wiki", DeadlineHours: 12.5, Status: StatusFailed,
				Error: `mlcdsys: launching "p3.2xlarge": capacity exhausted`},
		},
		Probes: []RecoveredProbe{{
			Job:         "resnet-cifar10",
			Observation: search.SavedObservation{Type: "c5.4xlarge", Nodes: 4, Throughput: 251.37},
			DurationSec: 600,
			CostUSD:     2.18,
		}},
		MaxID: 2,
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("replay = %+v\nwant     %+v", st, want)
	}
	if rs.TailRecords != 6 || rs.TailSegments != 1 {
		t.Fatalf("stats = %+v, want 6 records from 1 segment", rs)
	}

	b, err := os.ReadFile(filepath.Join(compatDir, "seg-00000001.jnl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	const escaped = 4 // the failed record
	if len(lines) != 6 || !bytes.Contains(lines[escaped], []byte(`\"`)) {
		t.Fatalf("committed segment changed: %q", b)
	}
	for i, line := range lines {
		fast, ok := parseRecord(line)
		if ok != (i != escaped) {
			t.Errorf("line %d: fast path took it = %v: %s", i+1, ok, line)
		}
		var ref journalRecord
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatal(err)
		}
		if ok && recordText(fast) != recordText(ref) {
			t.Errorf("line %d: fast path read %s, encoding/json %s", i+1, recordText(fast), recordText(ref))
		}
	}
}

// TestRecordKeysFollowStruct: the fast path's key lists are the JSON
// keys of the structs in field order, so a field added, renamed or moved
// in journalRecord or search.SavedObservation fails here instead of
// silently sending every line down the slow path.
func TestRecordKeysFollowStruct(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		keys []string
	}{
		{reflect.TypeOf(journalRecord{}), recordKeys},
		{reflect.TypeOf(search.SavedObservation{}), observationKeys},
	} {
		var tags []string
		for i := 0; i < c.typ.NumField(); i++ {
			tags = append(tags, strings.Split(c.typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, c.keys) {
			t.Errorf("%s keys %q, fast path expects %q", c.typ, tags, c.keys)
		}
	}
}

// recordText renders every field of rec, the observation through its
// pointer. %#v quotes strings and prints each float64 so that it parses
// back to itself, -0 included, so two records print alike only when
// their values are identical.
func recordText(rec journalRecord) string {
	obs := "nil"
	if rec.Observation != nil {
		obs = fmt.Sprintf("%#v", *rec.Observation)
	}
	rec.Observation = nil
	return fmt.Sprintf("%#v observation=%s", rec, obs)
}

// FuzzDecodeRecord: for every line, decodeRecord and json.Unmarshal agree
// on whether it decodes and on the value, and whatever the fast path
// accepts, json.Unmarshal decodes to the same value.
func FuzzDecodeRecord(f *testing.F) {
	if b, err := os.ReadFile(filepath.Join(compatDir, "seg-00000001.jnl")); err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			f.Add(line)
		}
	}
	for _, s := range []string{
		`{}`,
		`{"type":"health"}`,
		`{"id":"job-0001","type":"submit"}`,         // keys out of order
		`{"type":"submit","type":"done"}`,           // duplicate key
		`{"type":"submit", "id":"job-0001"}`,        // whitespace
		` {"type":"submit"}`,                        // leading whitespace
		`{"type":"submit"}x`,                        // trailing bytes
		`{"TYPE":"submit","Budget_USD":5}`,          // keys json matches case-insensitively
		`{"type":"submit","tenant":"a\u00e9b"}`,     // escape
		"{\"type\":\"submit\",\"tenant\":\"\xff\"}", // invalid UTF-8
		"{\"type\":\"submit\",\"tenant\":\"\t\"}",   // control byte
		`{"type":"submit","tenant":"√©<>&"}`,        // raw non-ASCII and HTML bytes
		`{"type":"submit","extra":1}`,
		`{"type":"submit","budget_usd":null}`,
		`{"type":"submit","budget_usd":"100"}`,
		`{"type":"submit","budget_usd":01}`,
		`{"type":"submit","budget_usd":1.}`,
		`{"type":"submit","budget_usd":-0}`,
		`{"type":"submit","budget_usd":1e400}`,
		`{"type":"submit","budget_usd":2.5E-7,"deadline_hours":1e+21}`,
		`{"type":"probe","observation":null}`,
		`{"type":"probe","observation":{}}`,
		`{"type":"probe","observation":{"type":"c5.large","nodes":1e2,"throughput_samples_per_sec":1}}`,
		`{"type":"probe","observation":{"type":"c5.large","nodes":99999999999999999999,"throughput_samples_per_sec":1}}`,
		`{"type":"probe","observation":{"nodes":2,"type":"c5.large"}}`,
		`{"type":"done","id":"job-0001","status":"done","error":""}`,
		`{"type":"done",}`,
		`{"type":"done"`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		var ref journalRecord
		refErr := json.Unmarshal(line, &ref)
		got, err := decodeRecord(line)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: decodeRecord err = %v, json.Unmarshal err = %v", line, err, refErr)
		}
		if err == nil && recordText(got) != recordText(ref) {
			t.Fatalf("%q: decodeRecord read %s, json.Unmarshal %s", line, recordText(got), recordText(ref))
		}
		if fast, ok := parseRecord(line); ok {
			if refErr != nil {
				t.Fatalf("%q: fast path accepted a line json.Unmarshal refuses: %v", line, refErr)
			}
			if recordText(fast) != recordText(ref) {
				t.Fatalf("%q: fast path read %s, json.Unmarshal %s", line, recordText(fast), recordText(ref))
			}
		}
	})
}

// TestAppendLineBound: a record whose line, newline included, is exactly
// maxRecordLine bytes is written and replays; one byte more is refused
// without a byte written, and the journal keeps appending.
func TestAppendLineBound(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := OpenSegmented(SegmentedConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(id string, tenantLen int) journalRecord {
		return journalRecord{Type: "submit", ID: id, Job: "resnet-cifar10", Tenant: strings.Repeat("t", tenantLen)}
	}
	lineLen := func(rec journalRecord) int {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return len(b) + 1
	}
	fill := maxRecordLine - (lineLen(submit("job-0001", 1)) - 1)
	fits := submit("job-0001", fill)
	if n := lineLen(fits); n != maxRecordLine {
		t.Fatalf("test record line is %d bytes, want %d", n, maxRecordLine)
	}
	if err := jl.append(fits); err != nil {
		t.Fatalf("a %d-byte line was refused: %v", maxRecordLine, err)
	}
	size := func() int64 {
		info, err := os.Stat(segPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	before := size()
	if err := jl.append(submit("job-0002", fill+1)); !errors.Is(err, errRecordTooLong) {
		t.Fatalf("a %d-byte line: err = %v, want errRecordTooLong", maxRecordLine+1, err)
	}
	if after := size(); after != before {
		t.Fatalf("refused record changed the segment: %d → %d bytes", before, after)
	}
	if err := jl.append(submit("job-0003", 4)); err != nil {
		t.Fatalf("append after a refusal: %v", err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	st, _, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 2 || st.Subs[0].ID != "job-0001" || len(st.Subs[0].Tenant) != fill ||
		st.Subs[1].ID != "job-0003" || st.MaxID != 3 {
		t.Fatalf("replay = %d subs, MaxID %d; want job-0001 (tenant %d bytes) and job-0003", len(st.Subs), st.MaxID, fill)
	}
}
