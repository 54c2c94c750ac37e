// Package profiler implements MLCD's Profiler component: it runs a short
// training probe on a candidate deployment and reports measured
// throughput together with what the probe itself cost. The time model is
// the paper's (§V-A): 10 minutes per profiling run — covering cluster
// setup and warm-up — plus one extra minute for every 3 extra nodes. The
// monetary cost follows Eq. 8: C_profile = P(m) · n · T_profile.
//
// The Profiler also reproduces the paper's stability mechanism (§IV):
// it monitors throughput across measurement iterations and extends the
// probe when the discrepancy is large.
package profiler

import (
	"fmt"
	"sync"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/sim"
	"mlcd/internal/workload"
)

// BaseDuration is the single-node profiling time (setup + warm-up + run).
const BaseDuration = 10 * time.Minute

// ExtraPerNodes adds one minute for every 3 extra nodes.
const ExtraPerNodes = 3

// Duration returns T_profile for an n-node probe (Eq. 7's t(m,n); the
// paper's cost model depends on n only).
func Duration(nodes int) time.Duration {
	if nodes < 1 {
		panic(fmt.Sprintf("profiler: invalid node count %d", nodes))
	}
	extra := time.Duration((nodes-1)/ExtraPerNodes) * time.Minute
	return BaseDuration + extra
}

// Cost returns C_profile = P(m) · n · T_profile for deployment d (Eq. 8).
func Cost(d cloud.Deployment) float64 {
	return d.CostFor(Duration(d.Nodes))
}

// Result is one profiling observation.
type Result struct {
	Deployment cloud.Deployment
	Throughput float64       // measured samples/second
	Duration   time.Duration // wall-clock spent profiling (incl. extension)
	Cost       float64       // dollars spent profiling
	Trials     int           // measurement iterations folded into Throughput
	Extended   bool          // whether the stability mechanism kicked in
	// Failed marks an infrastructure failure (launch refused, cluster
	// never ready): the probe carries no signal about the deployment
	// itself, unlike an OOM crash (Throughput 0 with Failed false).
	Failed bool
	// Fidelity is the sub-sampling fraction the probe actually ran at:
	// a value in (0, 1) marks a short-burst measurement whose throughput
	// is biased low (see internal/sim's gap model). Zero means a full-
	// fidelity probe — the field stays unset on the classic path so
	// full-probe results are unchanged byte for byte.
	Fidelity float64
}

// Profiler measures candidate deployments.
type Profiler interface {
	Profile(j workload.Job, d cloud.Deployment) Result
}

// SimProfiler profiles against the performance simulator. It is safe for
// concurrent use, so searchers may run independent probes in parallel.
type SimProfiler struct {
	sim *sim.Simulator
	// StabilityCV is the coefficient-of-variation threshold above which
	// the probe is extended (default 0.08).
	StabilityCV float64
	// Extension is the extra probe time on instability (default 5 min).
	Extension time.Duration
	// trial counters make repeated probes of the same deployment see
	// fresh noise.
	mu     sync.Mutex
	trials map[string]int
}

// NewSimProfiler wraps a simulator.
func NewSimProfiler(s *sim.Simulator) *SimProfiler {
	return &SimProfiler{
		sim:         s,
		StabilityCV: 0.08,
		Extension:   5 * time.Minute,
		trials:      make(map[string]int),
	}
}

// OOMFailDuration is how long a probe runs before an out-of-memory crash
// is evident: the job dies during model build, well before the full
// warm-up completes.
const OOMFailDuration = 2 * time.Minute

// Profile implements Profiler: a full-fidelity ProfileAt.
func (p *SimProfiler) Profile(j workload.Job, d cloud.Deployment) Result {
	return p.ProfileAt(j, d, 1)
}
