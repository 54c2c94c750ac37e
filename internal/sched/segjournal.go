package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mlcd/internal/faultfs"
)

// The segmented journal keeps the scheduler's JSONL records (see
// journal.go) in a directory of rotating segment files plus a compacted
// snapshot, so that recovery cost is O(live jobs + distinct probes), not
// O(history):
//
//	dir/
//	  snapshot.json    compacted state covering segments ≤ Through
//	  seg-00000007.jnl sealed segment (immutable once rotated away from)
//	  seg-00000008.jnl active segment (append + fsync per record)
//
// Appends go to the active segment, one fsynced record at a time. When
// the active segment reaches MaxRecords it is sealed and a new one
// opened. Compaction folds the current snapshot plus every
// sealed segment into a fresh snapshot — keeping only live (non-
// terminal) submissions, one probe per (job, type, nodes), and the
// maximum job-ID sequence — then deletes every segment the new snapshot
// covers. The snapshot is written to a temp file, fsynced, and
// renamed into place, so a crash at any point leaves either the old or
// the new snapshot, never a torn one; segments are deleted only after
// the rename, and replay skips any leftover segment the snapshot
// already covers (Through), so the crash window between rename and
// delete is idempotent, and the next compaction deletes the leftover.
// A scheduler's journal compacts itself every compactEvery.
//
// Recovery replays snapshot.json, then every segment with a sequence
// number greater than the snapshot's Through, in order. The last
// segment may end in a torn line (crash mid-append); any segment may
// have been torn-tail-repaired by a previous open (repairTornTail), and
// compaction reads such segments cleanly.

// snapshotFile is the on-disk compacted state.
type snapshotFile struct {
	Version int              `json:"version"`
	Through int              `json:"through"` // highest segment seq folded in
	MaxID   int              `json:"max_id"`
	Subs    []RecoveredSub   `json:"subs,omitempty"` // live (non-terminal) only
	Probes  []RecoveredProbe `json:"probes,omitempty"`
}

const (
	snapshotName      = "snapshot.json"
	segmentPattern    = "seg-%08d.jnl"
	defaultMaxRecords = 1024
	// compactEvery is the cadence at which every journal a scheduler
	// opens compacts itself, so a restart replays live jobs and distinct
	// probes, not the history (health records included) since the last
	// compaction.
	compactEvery = time.Minute
)

// SegmentedConfig assembles a SegmentedJournal.
type SegmentedConfig struct {
	// Dir is the journal directory (created if missing).
	Dir string
	// MaxRecords seals the active segment after this many appends
	// (default 1024).
	MaxRecords int
	// CompactEvery starts a background loop compacting sealed segments
	// on this cadence (0 = no loop; only explicit Compact calls compact).
	CompactEvery time.Duration
	// OnCompact, when non-nil, is invoked after each compaction that
	// writes a snapshot, with the elapsed wall time. Used to wire metrics
	// without importing obs here.
	OnCompact func(d time.Duration)
	// OnRotate, when non-nil, is invoked after each segment rotation.
	OnRotate func()
	// FS is the storage under the journal (nil → the real filesystem).
	// The crash-restart simulator injects faults through it.
	FS faultfs.FS
}

// SegmentedJournal is an open segmented scheduler journal.
type SegmentedJournal struct {
	cfg SegmentedConfig
	fs  faultfs.FS // cfg.FS resolved (never nil)

	// compacting serializes Compact: two compactions would write the
	// same snapshot temp file.
	compacting sync.Mutex

	mu     sync.Mutex
	seq    int // active segment sequence number
	f      faultfs.File
	n      int   // records appended to the active segment
	off    int64 // bytes of complete, newline-terminated records in the active segment
	closed bool
	wedged bool // a failed rollback left torn bytes mid-file: fail stop

	stop chan struct{} // closes the background compaction loop
	done chan struct{} // loop exited
}

// segPath renders the path of segment seq.
func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf(segmentPattern, seq))
}

// listSegments returns the segment sequence numbers present in dir, in
// ascending order.
func listSegments(fsys faultfs.FS, dir string) ([]int, error) {
	names, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(name, segmentPattern, &n); err == nil {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// readSnapshot loads dir's snapshot; a missing file is an empty one.
func readSnapshot(fsys faultfs.FS, dir string) (snapshotFile, error) {
	var snap snapshotFile
	b, err := fsys.ReadFile(filepath.Join(dir, snapshotName))
	if errors.Is(err, fs.ErrNotExist) {
		return snap, nil
	}
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		return snap, fmt.Errorf("sched: parsing journal snapshot: %w", err)
	}
	return snap, nil
}

// ReplayStats reports what one segmented recovery actually read — the
// quantity the snapshot+tail design keeps flat as dead history grows.
type ReplayStats struct {
	SnapshotSubs   int // live submissions restored from the snapshot
	SnapshotProbes int // probes restored from the snapshot
	TailRecords    int // records replayed from post-snapshot segments
	TailSegments   int // segments replayed
}

// ReplaySegmented reads the segmented journal in dir on the real
// filesystem: the snapshot first, then every segment the snapshot does
// not cover, in order. A missing directory is an empty journal.
func ReplaySegmented(dir string) (JournalState, ReplayStats, error) {
	return ReplaySegmentedFS(faultfs.OS{}, dir)
}

// ReplaySegmentedFS is ReplaySegmented over an injectable filesystem.
func ReplaySegmentedFS(fsys faultfs.FS, dir string) (JournalState, ReplayStats, error) {
	snap, err := readSnapshot(fsys, dir)
	if err != nil {
		return JournalState{}, ReplayStats{}, err
	}
	seqs, err := listSegments(fsys, dir)
	if err != nil {
		return JournalState{}, ReplayStats{}, err
	}
	st, rs, _, err := foldSegments(fsys, dir, snap, seqs)
	return st, rs, err
}

// segTail describes the last segment a fold read: how many records it
// holds, and whether its final line is undecodable.
type segTail struct {
	records int
	torn    bool
}

// foldSegments rebuilds the state that snap plus every segment of seqs
// (ascending) it does not cover prove, in order. It reports what it read
// and the tail of the last segment it folded. Open, replay and
// compaction all go through it, so they cannot disagree on what the
// journal holds.
func foldSegments(fsys faultfs.FS, dir string, snap snapshotFile, seqs []int) (JournalState, ReplayStats, segTail, error) {
	rs := ReplayStats{SnapshotSubs: len(snap.Subs), SnapshotProbes: len(snap.Probes)}
	st := JournalState{MaxID: snap.MaxID}
	index := make(map[string]int) // id → position in st.Subs
	for _, sub := range snap.Subs {
		index[sub.ID] = len(st.Subs)
		st.Subs = append(st.Subs, sub)
	}
	st.Probes = append(st.Probes, snap.Probes...)
	var last segTail
	for _, seq := range seqs {
		if seq <= snap.Through {
			continue // compacted but not yet deleted (crash window, failed Remove)
		}
		f, err := fsys.Open(segPath(dir, seq))
		if err != nil {
			return st, rs, last, err
		}
		// Any segment can end in a torn line: the active one when a crash
		// hit mid-append, and a sealed one whose torn tail a later open
		// repaired — or never saw. scanRecords tolerates exactly that
		// shape.
		n, torn, err := scanRecords(f, func(rec journalRecord) {
			applyRecord(&st, index, rec)
		})
		_ = f.Close()
		if err != nil {
			return st, rs, last, fmt.Errorf("sched: segment %d: %w", seq, err)
		}
		rs.TailSegments++
		rs.TailRecords += n
		last = segTail{records: n, torn: torn}
	}
	return st, rs, last, nil
}

// OpenSegmented opens (creating if needed) the segmented journal in
// cfg.Dir in one pass, and returns it with the state it holds. The pass
// repairs the active segment's torn tail, folds the snapshot and every
// segment it does not cover, takes the active segment's record count
// from that fold (so a reopened segment rotates at the same threshold
// as a fresh one), and opens the active segment for appending. An
// active segment whose final line is complete but undecodable is
// sealed as it is, and appends go to a fresh segment. With
// CompactEvery set it then starts the background compaction loop.
func OpenSegmented(cfg SegmentedConfig) (*SegmentedJournal, JournalState, error) {
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = defaultMaxRecords
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, JournalState{}, fmt.Errorf("sched: creating journal dir: %w", err)
	}
	// A crash between writing snapshot.json.tmp and renaming it leaves
	// the tmp file behind; it covers nothing (only the rename publishes
	// it) and a fresh compaction will rewrite it, so discard it rather
	// than let it accumulate — or worse, be confused for state.
	if err := fsys.Remove(filepath.Join(cfg.Dir, snapshotName+".tmp")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, JournalState{}, fmt.Errorf("sched: clearing stale snapshot tmp: %w", err)
	}
	seqs, err := listSegments(fsys, cfg.Dir)
	if err != nil {
		return nil, JournalState{}, err
	}
	snap, err := readSnapshot(fsys, cfg.Dir)
	if err != nil {
		return nil, JournalState{}, err
	}
	// The active segment is the last one, and never one the snapshot
	// covers: every replay would skip a record appended there.
	seq := snap.Through + 1
	if len(seqs) > 0 && seqs[len(seqs)-1] > seq {
		seq = seqs[len(seqs)-1]
	}
	path := segPath(cfg.Dir, seq)
	// Only the last segment can be torn (it was the active one when the
	// crash hit); sealed segments were rotated away from after an fsync.
	if err := repairTornTail(fsys, path); err != nil {
		return nil, JournalState{}, fmt.Errorf("sched: repairing segment tail: %w", err)
	}
	// The active segment, when it exists, is the last segment folded.
	st, _, tail, err := foldSegments(fsys, cfg.Dir, snap, seqs)
	if err != nil {
		return nil, JournalState{}, err
	}
	n := tail.records
	if tail.torn {
		// A garbled line that ends in a newline survives the tail repair,
		// and the fold tolerates it only as a segment's last line: an
		// append after it would make every later replay fail. Seal the
		// segment around it and append to the next.
		seq, n = seq+1, 0
		path = segPath(cfg.Dir, seq)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, JournalState{}, fmt.Errorf("sched: opening segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, JournalState{}, fmt.Errorf("sched: sizing segment: %w", err)
	}
	j := &SegmentedJournal{
		cfg: cfg,
		fs:  fsys,
		seq: seq,
		f:   f,
		n:   n,
		off: info.Size(), // record-aligned: the tail was just repaired
	}
	if cfg.CompactEvery > 0 {
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.compactLoop()
	}
	return j, st, nil
}

// append writes one record to the active segment, fsyncs it, and
// rotates when the segment is full. A record whose line, newline
// included, exceeds maxRecordLine is refused before anything is
// written: replay could not read it back.
//
// Each append issues exactly one Write of the whole line, then one Sync.
// A failed write is rolled back: the active segment is truncated to the
// last record boundary, so a short or refused write never leaves torn
// bytes mid-file for the next append to concatenate onto (which would
// read as corruption on replay). A failed fsync needs no rollback — the
// record is complete and newline-aligned, merely not durable — but the
// operation is still refused. If the rollback truncate itself fails the
// journal wedges fail-stop: further appends are refused until a reopen
// repairs the file.
func (j *SegmentedJournal) append(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("sched: journal is closed")
	}
	if j.wedged {
		return errors.New("sched: journal wedged by failed write rollback; reopen to repair")
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sched: encoding journal record: %w", err)
	}
	b = append(b, '\n')
	if len(b) > maxRecordLine {
		return fmt.Errorf("%w: %d bytes, replay reads at most %d", errRecordTooLong, len(b), maxRecordLine)
	}
	if _, err := j.f.Write(b); err != nil {
		j.rollbackLocked()
		return fmt.Errorf("sched: appending journal record: %w", err)
	}
	j.off += int64(len(b))
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sched: syncing journal: %w", err)
	}
	j.n++
	if j.n >= j.cfg.MaxRecords {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rollbackLocked restores the active segment to its last record
// boundary after a failed write. Callers hold j.mu.
func (j *SegmentedJournal) rollbackLocked() {
	if err := j.f.Truncate(j.off); err != nil {
		// Torn bytes may remain mid-file; appending after them would be
		// corruption, so refuse everything until a reopen repairs.
		j.wedged = true
	}
}

// rotateLocked seals the active segment and opens the next. The new
// segment is opened BEFORE the old one is closed so a failed rotation
// (EIO on the open, say) leaves the journal still appending to the old,
// valid segment — the next append simply retries the rotation. Callers
// hold j.mu.
func (j *SegmentedJournal) rotateLocked() error {
	if err := j.f.Sync(); err != nil {
		return err
	}
	f, err := j.fs.OpenFile(segPath(j.cfg.Dir, j.seq+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sched: rotating to segment %d: %w", j.seq+1, err)
	}
	_ = j.f.Close() // sealed: already fsynced above
	j.seq++
	j.f = f
	j.n = 0
	j.off = 0
	if j.cfg.OnRotate != nil {
		j.cfg.OnRotate()
	}
	return nil
}

// Compact folds the snapshot and every sealed segment into a new
// snapshot, then deletes every segment the snapshot covers. When the
// active segment holds records it is rotated first, so a slow-trickle
// journal still converges to snapshot + empty tail. Safe to call
// concurrently with appends and with itself: sealed segments are
// immutable, only the rotation takes the journal lock, and compactions
// run one at a time.
func (j *SegmentedJournal) Compact() error {
	j.compacting.Lock()
	defer j.compacting.Unlock()
	start := time.Now()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return errors.New("sched: journal is closed")
	}
	if j.n > 0 {
		if err := j.rotateLocked(); err != nil {
			j.mu.Unlock()
			return err
		}
	}
	through := j.seq - 1 // everything before the (fresh) active segment
	j.mu.Unlock()

	snap, err := readSnapshot(j.fs, j.cfg.Dir)
	if err != nil {
		return err
	}
	seqs, err := listSegments(j.fs, j.cfg.Dir)
	if err != nil {
		return err
	}
	var covered []int // every segment the new snapshot covers
	for _, seq := range seqs {
		if seq <= through {
			covered = append(covered, seq)
		}
	}
	if snap.Through < through {
		if err := j.writeCompacted(snap, covered, through); err != nil {
			return err
		}
		if j.cfg.OnCompact != nil {
			j.cfg.OnCompact(time.Since(start))
		}
	}
	// Delete every covered segment, not only those just folded: a crash
	// between an earlier rename and its deletes, or a failed Remove,
	// leaves covered segments that no later fold reads.
	var errs []error
	for _, seq := range covered {
		if err := j.fs.Remove(segPath(j.cfg.Dir, seq)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// writeCompacted folds snap and the segments seqs into the snapshot
// covering segments ≤ through, and writes it.
func (j *SegmentedJournal) writeCompacted(snap snapshotFile, seqs []int, through int) error {
	st, _, _, err := foldSegments(j.fs, j.cfg.Dir, snap, seqs)
	if err != nil {
		return fmt.Errorf("sched: compacting: %w", err)
	}
	next := snapshotFile{Version: 1, Through: through, MaxID: st.MaxID}
	for _, sub := range st.Subs {
		// Status "" means the journal never proved a terminal state: the
		// job is still owed work and must survive compaction. Terminal
		// jobs are the dead history compaction exists to shed.
		if sub.Status == "" {
			next.Subs = append(next.Subs, sub)
		}
	}
	// One probe per (job, type, nodes): the cache keeps the first
	// measurement it sees (Prime never overwrites), so keep the first
	// here too — replay order is then irrelevant.
	seen := make(map[string]bool)
	for _, p := range st.Probes {
		key := fmt.Sprintf("%s|%s|%d", p.Job, p.Observation.Type, p.Observation.Nodes)
		if seen[key] {
			continue
		}
		seen[key] = true
		next.Probes = append(next.Probes, p)
	}
	return writeSnapshot(j.fs, j.cfg.Dir, next)
}

// writeSnapshot atomically replaces dir's snapshot: write temp, fsync,
// rename.
func writeSnapshot(fsys faultfs.FS, dir string, snap snapshotFile) error {
	b, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("sched: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(dir, snapshotName+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, filepath.Join(dir, snapshotName))
}

// compactLoop compacts on the configured cadence until Close.
func (j *SegmentedJournal) compactLoop() {
	defer close(j.done)
	t := time.NewTicker(j.cfg.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			_ = j.Compact() // a failed compaction never loses data; retry next tick
		}
	}
}

// Close stops the compaction loop and closes the active segment.
// Idempotent.
func (j *SegmentedJournal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	stop, done := j.stop, j.done
	err := j.f.Close()
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}
