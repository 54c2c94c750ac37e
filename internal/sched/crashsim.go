package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mlcd/internal/faultfs"
	"mlcd/internal/search"
)

// The crash-restart simulator drives a SegmentedJournal through a
// seeded script of appends, terminal records, probes, and compactions
// over faultfs.Mem, kills the "process" at an arbitrary filesystem
// operation (plus any extra planned faults), restarts over the
// surviving bytes, and checks the journal's durability contract:
//
//   - no acked submission lost: every submit whose append returned nil
//     is reconstructible after the crash (present, or provably
//     terminal and legitimately compacted away);
//   - no duplicate terminal status and no duplicate recovered
//     submission: replay folds retried records, never double-runs;
//   - duplicate raw submit records are byte-identical: a retried append
//     re-wrote the same identity — the ID-reuse failure mode writes two
//     different submissions under one ID;
//   - acked probes survive: profiling observations, the paper's
//     expensive resource, are never silently re-bought;
//   - recovery is clean: replay over any crash survivor never panics
//     and never errors;
//   - compaction is idempotent: compact → replay sees the same
//     effective state as compact-twice → replay, including when the
//     crash interrupted a compaction that is then retried.
//
// Every check is a plain function over oracle + replayed state, so each
// has a negative test proving it fires.

// CrashPlan is one seeded simulation: plain data, so failing plans
// serialize to JSON reproducers.
type CrashPlan struct {
	// Seed drives the operation script (what gets journaled when).
	Seed int64 `json:"seed"`
	// Ops is the script length (journal-level operations, not FS ops).
	Ops int `json:"ops"`
	// MaxRecords is the rotation threshold (small values make rotation
	// and compaction crash windows reachable in short scripts).
	MaxRecords int `json:"max_records"`
	// CrashAtOp kills the process at this 1-based filesystem operation
	// (0 = run to completion). Enumerated exhaustively by the storm.
	CrashAtOp int64 `json:"crash_at_op,omitempty"`
	// CrashSeed picks which unsynced bytes survive the crash (torn-tail
	// prefix, pending-metadata cut point).
	CrashSeed int64 `json:"crash_seed,omitempty"`
	// Faults are extra non-crash faults active during the script (EIO,
	// ENOSPC, short writes, failed fsync).
	Faults []faultfs.Fault `json:"faults,omitempty"`
}

// CrashReport describes one simulation run that upheld every invariant.
type CrashReport struct {
	TotalFSOps    int64  `json:"total_fs_ops"` // FS ops the run performed (bounds CrashAtOp enumeration)
	Crashed       bool   `json:"crashed"`
	Phase         string `json:"phase"` // append | rotation | compaction | open | none
	AckedSubs     int    `json:"acked_subs"`
	AckedDones    int    `json:"acked_dones"`
	AckedProbes   int    `json:"acked_probes"`
	RejectedOps   int    `json:"rejected_ops"` // appends refused by planned faults
	RecoveredSubs int    `json:"recovered_subs"`
}

// simOracle tracks what the simulated clients were told.
type simOracle struct {
	ackedSubs   map[string]bool   // submit append returned nil
	subPayload  map[string]string // id → canonical JSON payload
	ackedDones  map[string]Status // terminal append returned nil
	triedDones  map[string]bool   // terminal append attempted (acked or not)
	ackedProbes map[string]bool   // probe key "job|type|nodes"
	rejected    int
}

func newSimOracle() *simOracle {
	return &simOracle{
		ackedSubs:   make(map[string]bool),
		subPayload:  make(map[string]string),
		ackedDones:  make(map[string]Status),
		triedDones:  make(map[string]bool),
		ackedProbes: make(map[string]bool),
	}
}

const crashSimDir = "jdir"

// probeKey matches Compact's dedup key.
func probeKey(job, typ string, nodes int) string {
	return fmt.Sprintf("%s|%s|%d", job, typ, nodes)
}

// RunCrashPlan executes one plan end to end and returns a non-nil error
// iff an invariant was violated (the report is still best-effort
// populated for diagnostics).
func RunCrashPlan(plan CrashPlan) (CrashReport, error) {
	var rep CrashReport
	if plan.Ops <= 0 {
		plan.Ops = 40
	}
	if plan.MaxRecords <= 0 {
		plan.MaxRecords = 8
	}
	mem := faultfs.NewMem()
	inj := faultfs.NewInjector(mem, rand.New(rand.NewSource(plan.CrashSeed)))
	faults := append([]faultfs.Fault(nil), plan.Faults...)
	if plan.CrashAtOp > 0 {
		faults = append(faults, faultfs.Fault{AtOp: plan.CrashAtOp, Mode: faultfs.ModeCrash})
	}
	inj.SetPlan(faults)

	oracle := newSimOracle()
	j, _, err := OpenSegmented(SegmentedConfig{Dir: crashSimDir, MaxRecords: plan.MaxRecords, FS: inj})
	switch {
	case err == nil:
		runCrashScript(j, rand.New(rand.NewSource(plan.Seed)), plan.Ops, oracle)
		_ = j.Close() // best-effort: the FS may be dead
	case errors.Is(err, faultfs.ErrCrashed):
		// Crashed while opening/repairing: the process never came up.
	default:
		// A non-crash fault refused the open; also a legitimate outcome.
		oracle.rejected++
	}
	rep.TotalFSOps = inj.CountOps()
	rep.Crashed = inj.Crashed()
	rep.Phase = "none"
	if cp, ok := inj.LastCrashPoint(); ok {
		rep.Phase = classifyCrashPhase(cp)
	}
	rep.AckedSubs = len(oracle.ackedSubs)
	rep.AckedDones = len(oracle.ackedDones)
	rep.AckedProbes = len(oracle.ackedProbes)
	rep.RejectedOps = oracle.rejected

	// ---- Restart over the survivors: the conformance checks. ----
	state, _, err := replayNoPanic(mem)
	if err != nil {
		return rep, fmt.Errorf("clean-recovery invariant: %w", err)
	}
	rep.RecoveredSubs = len(state.Subs)
	if err := checkUniqueSubs(state); err != nil {
		return rep, err
	}
	if err := checkNoAckedSubLost(oracle, state); err != nil {
		return rep, err
	}
	if err := checkNoAckedTerminalLost(oracle, state); err != nil {
		return rep, err
	}
	if err := checkAckedProbesSurvive(oracle, state); err != nil {
		return rep, err
	}
	if err := checkRawSubmitRecords(mem); err != nil {
		return rep, err
	}

	// ---- Compaction idempotence under crash-retry. ----
	// Reopen (repairs any torn tail, clears stale tmp), then compact
	// twice; the effective state must not drift.
	j2, _, err := OpenSegmented(SegmentedConfig{Dir: crashSimDir, MaxRecords: plan.MaxRecords, FS: mem})
	if err != nil {
		return rep, fmt.Errorf("clean-recovery invariant: reopen after crash: %w", err)
	}
	defer func() { _ = j2.Close() }()
	st0, _, err := replayNoPanic(mem)
	if err != nil {
		return rep, fmt.Errorf("clean-recovery invariant: replay after reopen: %w", err)
	}
	if err := j2.Compact(); err != nil {
		return rep, fmt.Errorf("compaction-idempotence invariant: fault-free compact failed: %w", err)
	}
	st1, _, err := replayNoPanic(mem)
	if err != nil {
		return rep, fmt.Errorf("clean-recovery invariant: replay after compact: %w", err)
	}
	if err := j2.Compact(); err != nil {
		return rep, fmt.Errorf("compaction-idempotence invariant: second compact failed: %w", err)
	}
	st2, _, err := replayNoPanic(mem)
	if err != nil {
		return rep, fmt.Errorf("clean-recovery invariant: replay after second compact: %w", err)
	}
	if err := checkCompactionIdempotent(st0, st1, st2); err != nil {
		return rep, err
	}
	// The compacted view must still uphold the ack contract.
	if err := checkNoAckedSubLost(oracle, st2); err != nil {
		return rep, fmt.Errorf("after compaction: %w", err)
	}
	if err := checkAckedProbesSurvive(oracle, st2); err != nil {
		return rep, fmt.Errorf("after compaction: %w", err)
	}
	return rep, nil
}

// runCrashScript drives the journal until the script ends or the
// filesystem crashes. Failed appends are retried once with the
// identical record — the client-retry behavior that makes duplicate
// records legitimate history.
func runCrashScript(j *SegmentedJournal, rng *rand.Rand, ops int, o *simOracle) {
	var live []string
	nextID := 0
	types := []string{"c5.4xlarge", "p3.2xlarge", "m5.large"}
	statuses := []Status{StatusDone, StatusFailed, StatusCancelled}

	// tryAppend returns false when the process died.
	tryAppend := func(rec journalRecord) (acked, alive bool) {
		for attempt := 0; attempt < 2; attempt++ {
			err := j.append(rec)
			if err == nil {
				return true, true
			}
			if errors.Is(err, faultfs.ErrCrashed) {
				return false, false
			}
		}
		o.rejected++
		return false, true
	}

	for i := 0; i < ops; i++ {
		switch p := rng.Intn(100); {
		case p < 40: // submit
			nextID++
			id := fmt.Sprintf("job-%04d", nextID)
			rec := journalRecord{
				Type:      "submit",
				ID:        id,
				Job:       "resnet-cifar10",
				Tenant:    fmt.Sprintf("t%d", rng.Intn(5)),
				BudgetUSD: float64(50 + rng.Intn(200)),
			}
			b, _ := json.Marshal(rec)
			o.subPayload[id] = string(b)
			acked, alive := tryAppend(rec)
			if acked {
				o.ackedSubs[id] = true
				live = append(live, id)
			}
			if !alive {
				return
			}
		case p < 65 && len(live) > 0: // done
			k := rng.Intn(len(live))
			id := live[k]
			st := statuses[rng.Intn(len(statuses))]
			o.triedDones[id] = true
			acked, alive := tryAppend(journalRecord{Type: "done", ID: id, Status: st})
			if acked {
				o.ackedDones[id] = st
				live = append(live[:k], live[k+1:]...)
			}
			if !alive {
				return
			}
		case p < 90: // probe
			typ := types[rng.Intn(len(types))]
			nodes := 1 + rng.Intn(8)
			rec := journalRecord{
				Type: "probe",
				Job:  "resnet-cifar10",
				Observation: &search.SavedObservation{
					Type: typ, Nodes: nodes, Throughput: 100 + float64(rng.Intn(900)),
				},
				DurationSec: 600,
				CostUSD:     2 + rng.Float64(),
			}
			acked, alive := tryAppend(rec)
			if acked {
				o.ackedProbes[probeKey(rec.Job, typ, nodes)] = true
			}
			if !alive {
				return
			}
		default: // compact
			if err := j.Compact(); errors.Is(err, faultfs.ErrCrashed) {
				return
			}
		}
	}
}

// classifyCrashPhase buckets a crash point into the journal phase it
// interrupted, for storm coverage reporting.
func classifyCrashPhase(cp faultfs.CrashPoint) string {
	switch {
	case strings.Contains(cp.Path, snapshotName) || cp.Op == faultfs.OpRemove:
		return "compaction"
	case cp.Op == faultfs.OpRename:
		return "compaction"
	case cp.Op == faultfs.OpOpen || cp.Op == faultfs.OpClose || cp.Op == faultfs.OpTruncate:
		return "rotation" // segment handoff / tail repair
	default:
		return "append"
	}
}

// replayNoPanic replays the simulator's journal directory, converting a
// panic — which the clean-recovery invariant forbids outright — into an
// error.
func replayNoPanic(fsys faultfs.FS) (st JournalState, rs ReplayStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replay panicked: %v", r)
		}
	}()
	return ReplaySegmentedFS(fsys, crashSimDir)
}

// checkUniqueSubs: replay must never yield two submissions with one ID
// (the double-enqueue failure mode).
func checkUniqueSubs(st JournalState) error {
	seen := make(map[string]bool, len(st.Subs))
	for _, sub := range st.Subs {
		if seen[sub.ID] {
			return fmt.Errorf("unique-subs invariant: submission %s recovered twice", sub.ID)
		}
		seen[sub.ID] = true
	}
	return nil
}

// checkNoAckedSubLost: every acked submission is present after replay,
// unless a terminal record was at least attempted for it — the only way
// compaction may legitimately shed it.
func checkNoAckedSubLost(o *simOracle, st JournalState) error {
	present := make(map[string]bool, len(st.Subs))
	for _, sub := range st.Subs {
		present[sub.ID] = true
	}
	for id := range o.ackedSubs {
		if !present[id] && !o.triedDones[id] {
			return fmt.Errorf("no-acked-sub-lost invariant: %s was acked, never finished, and is gone", id)
		}
	}
	return nil
}

// checkNoAckedTerminalLost: a submission whose terminal status was
// acked must never replay as live (it would re-run a finished job), and
// when present its status must match what the client was told.
func checkNoAckedTerminalLost(o *simOracle, st JournalState) error {
	for _, sub := range st.Subs {
		want, acked := o.ackedDones[sub.ID]
		if !acked {
			continue
		}
		if sub.Status == "" {
			return fmt.Errorf("no-acked-terminal-lost invariant: %s finished (%s was acked) but replays as live", sub.ID, want)
		}
		if sub.Status != want {
			return fmt.Errorf("no-acked-terminal-lost invariant: %s acked as %s, replays as %s", sub.ID, want, sub.Status)
		}
	}
	return nil
}

// checkAckedProbesSurvive: every acked probe key is still present — a
// lost measurement is profiling money silently re-spent.
func checkAckedProbesSurvive(o *simOracle, st JournalState) error {
	present := make(map[string]bool, len(st.Probes))
	for _, p := range st.Probes {
		present[probeKey(p.Job, p.Observation.Type, p.Observation.Nodes)] = true
	}
	for key := range o.ackedProbes {
		if !present[key] {
			return fmt.Errorf("acked-probes-survive invariant: probe %s was acked and is gone", key)
		}
	}
	return nil
}

// checkRawSubmitRecords scans the raw surviving segment bytes: two
// decodable submit records with one ID must be byte-identical (a client
// retry), never two different submissions under a reused ID.
func checkRawSubmitRecords(fsys faultfs.FS) error {
	seqs, err := listSegments(fsys, crashSimDir)
	if err != nil {
		return fmt.Errorf("raw-records scan: %w", err)
	}
	byID := make(map[string]string)
	for _, seq := range seqs {
		b, err := fsys.ReadFile(segPath(crashSimDir, seq))
		if err != nil {
			return fmt.Errorf("raw-records scan: %w", err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if line == "" {
				continue
			}
			var rec journalRecord
			if json.Unmarshal([]byte(line), &rec) != nil {
				continue // torn bytes are replay's problem, not this check's
			}
			if rec.Type != "submit" {
				continue
			}
			if prev, ok := byID[rec.ID]; ok && prev != line {
				return fmt.Errorf("raw-records invariant: submit %s appears with diverging payloads (ID reuse): %s vs %s", rec.ID, prev, line)
			}
			byID[rec.ID] = line
		}
	}
	return nil
}

// effectiveState is the order-insensitive view compaction must
// preserve: which jobs are still owed work, which measurements exist,
// and the ID high-water mark.
type effectiveState struct {
	Live      string
	ProbeKeys string
	MaxID     int
}

func normalizeState(st JournalState) effectiveState {
	var live []string
	for _, sub := range st.Subs {
		if sub.Status == "" {
			live = append(live, sub.ID)
		}
	}
	sort.Strings(live)
	keys := make([]string, 0, len(st.Probes))
	seen := make(map[string]bool)
	for _, p := range st.Probes {
		k := probeKey(p.Job, p.Observation.Type, p.Observation.Nodes)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return effectiveState{Live: strings.Join(live, ","), ProbeKeys: strings.Join(keys, ","), MaxID: st.MaxID}
}

// checkCompactionIdempotent: replay before compaction, after one
// compaction, and after a second must agree on the effective state.
func checkCompactionIdempotent(st0, st1, st2 JournalState) error {
	n0, n1, n2 := normalizeState(st0), normalizeState(st1), normalizeState(st2)
	if n0 != n1 {
		return fmt.Errorf("compaction-idempotence invariant: compaction changed effective state: %+v -> %+v", n0, n1)
	}
	if n1 != n2 {
		return fmt.Errorf("compaction-idempotence invariant: repeated compaction drifted: %+v -> %+v", n1, n2)
	}
	return nil
}

// ShrinkCrashPlan greedily minimizes a failing plan: shorter scripts
// first, then dropped extra faults, then a smaller rotation threshold —
// re-verifying the failure after each candidate step, within a bounded
// number of runs. Returns the smallest plan that still fails.
func ShrinkCrashPlan(plan CrashPlan, maxRuns int) CrashPlan {
	fails := func(p CrashPlan) bool {
		if maxRuns <= 0 {
			return false
		}
		maxRuns--
		_, err := RunCrashPlan(p)
		return err != nil
	}
	best := plan
	// Halve the script while the failure persists.
	for best.Ops > 1 {
		cand := best
		cand.Ops = best.Ops / 2
		if !fails(cand) {
			break
		}
		best = cand
	}
	// Then walk down in single steps.
	for best.Ops > 1 {
		cand := best
		cand.Ops = best.Ops - 1
		if !fails(cand) {
			break
		}
		best = cand
	}
	// Drop extra faults one at a time.
	for i := 0; i < len(best.Faults); {
		cand := best
		cand.Faults = append(append([]faultfs.Fault(nil), best.Faults[:i]...), best.Faults[i+1:]...)
		if fails(cand) {
			best = cand
		} else {
			i++
		}
	}
	return best
}
