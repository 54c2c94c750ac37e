package profiler

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/stats"
	"mlcd/internal/workload"
)

// Multi-fidelity probing (TrimTuner-style sub-sampling): a probe at
// fidelity f ∈ (0, 1) runs a short burst instead of the full profiling
// protocol. It charges roughly f of the full Eq. 7 time — the fixed
// setup floor is unavoidable — and returns a noisier, downward-biased
// throughput estimate (short bursts over-weight warm-up and cold
// caches; internal/sim owns the deterministic gap model). Fidelity 1 is
// the paper's full probe, bit for bit.

// SetupFloor is the irreducible part of a probe: cluster setup and the
// first moments of warm-up cannot be sub-sampled away. It matches the
// OOM-crash horizon — by then the job is visibly running (or dead).
const SetupFloor = 2 * time.Minute

// MinFidelity is the lowest fraction of a probe that still yields any
// throughput signal; requests below it are clamped up.
const MinFidelity = 0.05

// Fid normalizes a fidelity value: zero (the unset field default) and
// anything ≥ 1 mean a full-fidelity probe, and a fraction below
// MinFidelity is clamped up to it.
func Fid(f float64) float64 {
	switch {
	case f <= 0 || f >= 1:
		return 1
	case f < MinFidelity:
		return MinFidelity
	}
	return f
}

// ParseLadder reads a comma-separated multi-fidelity probing ladder
// ("0.25,0.5"); the empty string is no ladder. Every rung must lie in
// (0, 1): a full probe is not a rung, and NaN is refused with the rest.
func ParseLadder(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("profiler: bad fidelity %q: %w", part, err)
		}
		if !(f > 0 && f < 1) {
			return nil, fmt.Errorf("profiler: fidelity %v outside (0,1)", f)
		}
		out = append(out, f)
	}
	return out, nil
}

// DurationAt is Eq. 7 at fidelity f: the setup floor plus f of the
// sub-sampleable remainder. DurationAt(n, 1) == Duration(n) exactly.
func DurationAt(nodes int, f float64) time.Duration {
	full := Duration(nodes)
	f = Fid(f)
	if f >= 1 {
		return full
	}
	return SetupFloor + time.Duration(f*float64(full-SetupFloor))
}

// CostAt is Eq. 8 at fidelity f: C_profile = P(m) · n · DurationAt.
// CostAt(d, 1) == Cost(d) exactly.
func CostAt(d cloud.Deployment, f float64) float64 {
	return d.CostFor(DurationAt(d.Nodes, f))
}

// FidelityProfiler is a Profiler that can run sub-sampled probes. The
// search only offers its fidelity ladder when the profiler implements
// this; everything else stays on full probes.
type FidelityProfiler interface {
	Profiler
	// ProfileAt measures d with a burst of fidelity f ∈ (0, 1]; f ≥ 1
	// must be identical to Profile. The Result's Fidelity field reports
	// what was actually delivered (0 = full).
	ProfileAt(j workload.Job, d cloud.Deployment, f float64) Result
}

// ProbeAt profiles d at fidelity f through p, falling back to a plain
// full-price probe when p cannot run partial ones. Callers must trust
// the returned Result's Fidelity (not the requested f) when deciding
// how to treat the measurement.
func ProbeAt(p Profiler, j workload.Job, d cloud.Deployment, f float64) Result {
	if Fid(f) < 1 {
		if fp, ok := p.(FidelityProfiler); ok {
			return fp.ProfileAt(j, d, f)
		}
	}
	return p.Profile(j, d)
}

// fullFidelityIters is the full protocol's measurement count: three
// iterations, extended once by as many more when they disagree beyond
// StabilityCV (§IV). lowFidelityIters is the burst's: two iterations.
// The burst is too short for the stability-extension protocol — the gap
// model and the search's promotion discipline own the extra variance.
const (
	fullFidelityIters = 3
	lowFidelityIters  = 2
)

// ProfileAt implements FidelityProfiler on the simulator-backed
// profiler. A full probe (f ≥ 1) takes three measurement iterations,
// extends once with three more if they disagree beyond StabilityCV, and
// returns the mean. A sub-sampled one takes a two-iteration burst billed
// at DurationAt, measured through the simulator's biased sub-sampled
// mode, and reports its fidelity. A deployment the model cannot fit
// crashes during model build whatever the fidelity, and is billed only
// for OOMFailDuration.
func (p *SimProfiler) ProfileAt(j workload.Job, d cloud.Deployment, f float64) Result {
	f = Fid(f)
	low := f < 1
	r := Result{Deployment: d}
	iters := fullFidelityIters
	if low {
		r.Fidelity = f
		iters = lowFidelityIters
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := j.String() + "|" + d.Key()
	if first := p.sim.MeasureThroughputAt(j, d, p.trials[key], f); first <= 0 {
		p.trials[key]++
		r.Duration = OOMFailDuration
		r.Cost = d.CostFor(OOMFailDuration)
		r.Trials = 1
		return r
	}
	meas := make([]float64, 0, 2*iters)
	measure := func() {
		for i := 0; i < iters; i++ {
			meas = append(meas, p.sim.MeasureThroughputAt(j, d, p.trials[key], f))
			p.trials[key]++
		}
	}
	measure()
	r.Duration = DurationAt(d.Nodes, f)
	if !low && stats.Std(meas)/stats.Mean(meas) > p.StabilityCV {
		r.Extended = true
		r.Duration += p.Extension
		measure()
	}
	r.Throughput = stats.Mean(meas)
	r.Cost = d.CostFor(r.Duration)
	r.Trials = len(meas)
	return r
}
