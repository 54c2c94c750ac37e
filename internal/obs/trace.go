package obs

import (
	"encoding/json"
	"sync"
)

// Event is one entry in a job's search timeline. The schema is a flat
// union over every event kind; unused fields are omitted from JSON so a
// trace reads as a compact ledger. Events carry no wall-clock
// timestamps — only sequence numbers and cumulative virtual time/cost —
// which is what makes a trace reproducible byte for byte under a fixed
// seed.
type Event struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"`

	// Probe-shaped fields (kinds "probe", "cache_hit", "launch_retry").
	Step       int     `json:"step,omitempty"`
	Deployment string  `json:"deployment,omitempty"`
	Throughput float64 `json:"throughput,omitempty"`

	// The per-exploration ledger (Eqs. 7–8): what this event cost and
	// the running totals after it.
	ProfileHours    float64 `json:"profile_hours,omitempty"`
	ProfileUSD      float64 `json:"profile_usd,omitempty"`
	CumProfileHours float64 `json:"cum_profile_hours,omitempty"`
	CumProfileUSD   float64 `json:"cum_profile_usd,omitempty"`

	// Acquisition bookkeeping: the cost-penalized score that selected
	// this candidate.
	Acquisition float64 `json:"acquisition,omitempty"`

	// Remaining constraint headroom after the event (Eqs. 5–6): hours to
	// the deadline or dollars to the budget, whichever scenario binds.
	HeadroomHours float64 `json:"headroom_hours,omitempty"`
	HeadroomUSD   float64 `json:"headroom_usd,omitempty"`

	// Savings booked by the shared profiling cache (kind "cache_hit").
	SavedUSD float64 `json:"saved_usd,omitempty"`

	// Training-phase ledger (kinds "train_done", "done").
	TrainHours float64 `json:"train_hours,omitempty"`
	TrainUSD   float64 `json:"train_usd,omitempty"`

	// Fault-recovery ledger (kinds "spot_interruption", "train_resumed"):
	// work lost to an interruption — billed but to be redone from the
	// last checkpoint.
	LostHours float64 `json:"lost_hours,omitempty"`
	LostUSD   float64 `json:"lost_usd,omitempty"`

	// Multi-fidelity probing (kinds "probe", "fidelity_gap"): the
	// sub-sampling fraction a probe ran at (0 = full fidelity, so
	// classic traces are byte-identical), and — on promotion events —
	// the gap model's error on the measured (low, full) pair.
	Fidelity    float64 `json:"fidelity,omitempty"`
	GapResidual float64 `json:"gap_residual,omitempty"`

	// Note carries the human-readable detail: init/explore notes, prior
	// pruning bounds, stop reasons, failure messages.
	Note string `json:"note,omitempty"`
}

// Trace is the full recorded timeline of one job.
type Trace struct {
	JobID    string  `json:"job_id"`
	Job      string  `json:"job"`
	Tenant   string  `json:"tenant,omitempty"`
	Scenario string  `json:"scenario,omitempty"`
	Events   []Event `json:"events"`
}

// EventSink receives trace events. Emitters must treat a nil sink as
// "tracing off"; the Emit helper on *JobTrace is nil-safe for that
// reason.
type EventSink interface {
	Emit(Event)
}

// Recorder keeps one bounded timeline per job. When the retention limit
// is exceeded the oldest trace is evicted, so a long-running daemon's
// memory stays bounded no matter how many jobs flow through. "Oldest"
// is the order Start was called in; when several goroutines start
// traces at once — concurrent submissions, or the shard plane's shards
// recovering their journals in parallel — which traces survive past the
// limit depends on their timing.
type Recorder struct {
	mu     sync.Mutex
	traces map[string]*Trace
	order  []string
	limit  int
}

// DefaultTraceLimit bounds retained traces when NewRecorder gets 0.
const DefaultTraceLimit = 1024

// NewRecorder returns a recorder retaining up to limit traces
// (0 → DefaultTraceLimit).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Recorder{traces: make(map[string]*Trace), limit: limit}
}

// Start opens (or reopens) the timeline for jobID and returns its sink.
// Reopening an existing job — a scheduler restart replaying its journal
// — keeps the already-recorded events and appends after them.
func (r *Recorder) Start(jobID, job, tenant, scenario string) *JobTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.traces[jobID]; !ok {
		if len(r.order) >= r.limit {
			oldest := r.order[0]
			r.order = r.order[1:]
			delete(r.traces, oldest)
		}
		r.traces[jobID] = &Trace{JobID: jobID, Job: job, Tenant: tenant, Scenario: scenario}
		r.order = append(r.order, jobID)
	}
	return &JobTrace{rec: r, id: jobID}
}

// Get returns a deep-copied snapshot of jobID's trace.
func (r *Recorder) Get(jobID string) (Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.traces[jobID]
	if !ok {
		return Trace{}, false
	}
	cp := *t
	cp.Events = append([]Event(nil), t.Events...)
	return cp, true
}

// Len returns how many traces are retained.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.traces)
}

// append adds one event to jobID's timeline, assigning its sequence
// number. Events for evicted/unknown jobs are dropped.
func (r *Recorder) append(jobID string, e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.traces[jobID]
	if !ok {
		return
	}
	e.Seq = len(t.Events) + 1
	t.Events = append(t.Events, e)
}

// JobTrace is the per-job EventSink handed to the scheduler, profiler,
// and search layers. A nil *JobTrace is a valid no-op sink, so call
// sites never need nil checks.
type JobTrace struct {
	rec *Recorder
	id  string
}

// Emit implements EventSink. Safe on a nil receiver.
func (jt *JobTrace) Emit(e Event) {
	if jt == nil || jt.rec == nil {
		return
	}
	jt.rec.append(jt.id, e)
}

// MarshalTrace renders a trace as canonical JSON: fixed field order
// (struct order), no wall-clock data, trailing newline. Two runs of the
// same seeded workload produce byte-identical output — the determinism
// guarantee the end-to-end tests pin down.
func MarshalTrace(t Trace) ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
