package sched

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mlcd/internal/faultfs"
	"mlcd/internal/search"
)

// The journal is the scheduler's crash-safety story: append-only JSONL
// records (written to the segments of a SegmentedJournal, see
// segjournal.go) of every submission, every completed profiling probe
// (in search.SavedObservation's stable wire form), and every terminal
// status. A restarted scheduler replays it to re-enqueue jobs that never
// reached a terminal state and to prime the shared profiling cache, so
// recovered searches warm-start instead of re-profiling.
//
// Record kinds:
//
//	{"type":"submit","id":"job-0001","job":"resnet-cifar10","tenant":"acme","budget_usd":100}
//	{"type":"probe","job":"resnet-cifar10","observation":{...},"duration_sec":600,"cost_usd":2.18}
//	{"type":"done","id":"job-0001","status":"done"}
//
// Each record is fsynced before the triggering operation is considered
// durable. A torn final line (crash mid-write) is tolerated on replay.
// Replay decodes each line with decodeRecord (decode.go).
type journalRecord struct {
	Type string `json:"type"` // "submit" | "probe" | "done"

	// submit / done
	ID string `json:"id,omitempty"`

	// submit (Job is also set on probe records: the menu name whose
	// workload the observation belongs to)
	Job           string  `json:"job,omitempty"`
	Tenant        string  `json:"tenant,omitempty"`
	BudgetUSD     float64 `json:"budget_usd,omitempty"`
	DeadlineHours float64 `json:"deadline_hours,omitempty"`

	// probe
	Observation *search.SavedObservation `json:"observation,omitempty"`
	DurationSec float64                  `json:"duration_sec,omitempty"`
	CostUSD     float64                  `json:"cost_usd,omitempty"`

	// done
	Status Status `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// idSeq extracts the numeric sequence from a job ID ("job-0042" → 42).
// Sharded schedulers prefix their IDs ("s3-job-0042"), so the sequence
// is whatever follows the final dash; 0 when the suffix is not numeric.
func idSeq(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 || i == len(id)-1 {
		return 0
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// repairTornTail truncates path back to its last newline when the file
// does not end with one. The dropped bytes are a record whose fsync
// never completed, so the operation it covered was never acknowledged
// as durable — discarding it is the correct recovery, not data loss.
func repairTornTail(fsys faultfs.FS, path string) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, size-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	// Scan backwards in chunks for the last newline; everything after it
	// is the torn record.
	const chunk = 32 * 1024
	pos := size - 1 // the final byte is known not to be a newline
	for pos > 0 {
		n := int64(chunk)
		if pos < n {
			n = pos
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, pos-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			return f.Truncate(pos - n + int64(i) + 1)
		}
		pos -= n
	}
	return f.Truncate(0)
}

// RecoveredSub is one journaled submission with the last status the
// journal proves: "" means it never reached a terminal state and must be
// re-enqueued on recovery.
type RecoveredSub struct {
	ID            string
	Job           string // menu name
	Tenant        string
	BudgetUSD     float64
	DeadlineHours float64
	Status        Status // terminal status, or "" if still owed work
	Error         string
}

// RecoveredProbe is one journaled measurement, keyed by menu name.
type RecoveredProbe struct {
	Job         string
	Observation search.SavedObservation
	DurationSec float64
	CostUSD     float64
}

// JournalState is what a replay yields.
type JournalState struct {
	Subs   []RecoveredSub // submission order
	Probes []RecoveredProbe
	MaxID  int // highest numeric job-NNNN suffix seen
}

// applyRecord folds one decoded record into st; index maps submission
// IDs to positions in st.Subs so "done" records find their submission.
func applyRecord(st *JournalState, index map[string]int, rec journalRecord) {
	switch rec.Type {
	case "submit":
		// A duplicate submit ID is legitimate journal history: a client
		// whose first submit failed after the record landed (sync error,
		// crash before the ack) retries and the scheduler re-appends. The
		// first record wins; folding the duplicate into a SECOND Subs
		// entry would re-enqueue — and re-run — the job twice.
		if _, dup := index[rec.ID]; dup {
			if n := idSeq(rec.ID); n > st.MaxID {
				st.MaxID = n
			}
			return
		}
		index[rec.ID] = len(st.Subs)
		st.Subs = append(st.Subs, RecoveredSub{
			ID:            rec.ID,
			Job:           rec.Job,
			Tenant:        rec.Tenant,
			BudgetUSD:     rec.BudgetUSD,
			DeadlineHours: rec.DeadlineHours,
		})
		if n := idSeq(rec.ID); n > st.MaxID {
			st.MaxID = n
		}
	case "probe":
		if rec.Observation != nil {
			st.Probes = append(st.Probes, RecoveredProbe{
				Job:         rec.Job,
				Observation: *rec.Observation,
				DurationSec: rec.DurationSec,
				CostUSD:     rec.CostUSD,
			})
		}
	case "done":
		if i, ok := index[rec.ID]; ok {
			st.Subs[i].Status = rec.Status
			st.Subs[i].Error = rec.Error
		}
	}
}

// maxRecordLine bounds one journal line, its newline included: the
// replay scanner cannot read a longer one, so append refuses to write
// it rather than leave a journal no restart can replay.
const maxRecordLine = 1 << 20

// errRecordTooLong is append's refusal of a line over maxRecordLine.
var errRecordTooLong = errors.New("sched: journal record too long")

// scanRecords decodes JSONL journal records from r, invoking apply per
// record, and returns how many records it applied and whether the final
// line was undecodable. A torn final line — the tail of a crashed
// append — is tolerated; an undecodable record followed by more data is
// mid-file corruption and an error.
func scanRecords(r io.Reader, apply func(journalRecord)) (n int, torn bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxRecordLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if torn {
			return n, torn, fmt.Errorf("sched: journal corrupt: undecodable record followed by %q", string(line))
		}
		rec, err := decodeRecord(line)
		if err != nil {
			torn = true // only tolerable if nothing follows
			continue
		}
		apply(rec)
		n++
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return n, torn, fmt.Errorf("sched: replaying journal: %w", err)
	}
	return n, torn, nil
}
