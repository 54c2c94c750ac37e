// Package chaos is a deterministic fault-injecting cloud.Provider
// wrapper: the repository's stand-in for everything that goes wrong
// against a real EC2 control plane. Launches fail transiently, clusters
// never become ready, spot capacity is reclaimed mid-run, stragglers
// stretch runs, and whole API brownout windows refuse every call.
//
// Faults are declared as data (a Plan), armed on the *virtual* clock of
// the wrapped provider, and drawn from a seeded RNG — so a fault
// scenario costs zero wall-clock time and replays byte-identically under
// the same seed, which is what lets the chaos end-to-end suite assert
// that deadlines and budgets survive every failure mode, twice, with
// identical traces.
package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/obs"
)

// Kind names one injectable fault class.
type Kind string

// The fault classes a plan may arm.
const (
	// KindLaunchError fails Launch with cloud.ErrTransient after burning
	// DelaySeconds of control-plane time (capacity blip, API throttle).
	KindLaunchError Kind = "launch_error"
	// KindWaitTimeout makes WaitReady hang for HangMinutes of virtual
	// time and then give up with a typed cloud.WaitTimeout — the cluster
	// was booked (and billing) the whole wait.
	KindWaitTimeout Kind = "waitready_timeout"
	// KindSpotInterrupt reclaims the cluster mid-Run: only AtFraction of
	// the requested duration executes (and bills) before a typed
	// cloud.SpotInterruption is returned. The cluster stays alive — and
	// billing — until the caller terminates it.
	KindSpotInterrupt Kind = "spot_interrupt"
	// KindStraggler stretches Run by Slowdown: slow nodes make the same
	// work take longer, and the extra time is billed.
	KindStraggler Kind = "straggler"
	// KindBrownout refuses every control-plane call (Launch, WaitReady,
	// Terminate) with cloud.ErrTransient while the window is open.
	KindBrownout Kind = "brownout"
	// KindTerminateError fails Terminate with cloud.ErrTransient: the
	// cluster keeps billing until a retry gets through.
	KindTerminateError Kind = "terminate_error"
)

// knownKinds is the validation set.
var knownKinds = map[Kind]bool{
	KindLaunchError:    true,
	KindWaitTimeout:    true,
	KindSpotInterrupt:  true,
	KindStraggler:      true,
	KindBrownout:       true,
	KindTerminateError: true,
}

// Fault is one armed failure mode. The zero values of its knobs resolve
// to sensible defaults (see the constants below), so a plan can be as
// terse as {"kind":"launch_error","rate":0.5}.
type Fault struct {
	Kind Kind `json:"kind"`

	// FromHours..UntilHours is the virtual-clock window during which the
	// fault is armed. UntilHours 0 means "forever".
	FromHours  float64 `json:"from_hours,omitempty"`
	UntilHours float64 `json:"until_hours,omitempty"`

	// Rate is the per-opportunity injection probability in (0, 1]; 0
	// defaults to 1 (always fire while armed).
	Rate float64 `json:"rate,omitempty"`
	// Count caps total injections of this fault; 0 = unlimited.
	Count int `json:"count,omitempty"`

	// DelaySeconds is the control-plane time a refused call burns
	// (launch_error, brownout; default 30).
	DelaySeconds float64 `json:"delay_seconds,omitempty"`
	// HangMinutes is the waitready_timeout wait before giving up
	// (default 10).
	HangMinutes float64 `json:"hang_minutes,omitempty"`
	// AtFraction is where in the requested run a spot interruption lands,
	// in (0, 1) (default 0.5).
	AtFraction float64 `json:"at_fraction,omitempty"`
	// Slowdown is the straggler stretch factor, > 1 (default 1.5).
	Slowdown float64 `json:"slowdown,omitempty"`
	// MinRunMinutes arms spot_interrupt/straggler only for runs at least
	// this long — the lever that lets a plan target the long training
	// chunks while sparing short probes (default 0 = everything).
	MinRunMinutes float64 `json:"min_run_minutes,omitempty"`
}

// Defaults for the zero-valued knobs.
const (
	DefaultDelay      = 30 * time.Second
	DefaultHang       = 10 * time.Minute
	DefaultAtFraction = 0.5
	DefaultSlowdown   = 1.5
)

func (f Fault) delay() time.Duration {
	if f.DelaySeconds <= 0 {
		return DefaultDelay
	}
	return time.Duration(f.DelaySeconds * float64(time.Second))
}

func (f Fault) hang() time.Duration {
	if f.HangMinutes <= 0 {
		return DefaultHang
	}
	return time.Duration(f.HangMinutes * float64(time.Minute))
}

func (f Fault) atFraction() float64 {
	if f.AtFraction <= 0 || f.AtFraction >= 1 {
		return DefaultAtFraction
	}
	return f.AtFraction
}

func (f Fault) slowdown() float64 {
	if f.Slowdown <= 1 {
		return DefaultSlowdown
	}
	return f.Slowdown
}

func (f Fault) rate() float64 {
	if f.Rate <= 0 {
		return 1
	}
	return f.Rate
}

func (f Fault) minRun() time.Duration {
	return time.Duration(f.MinRunMinutes * float64(time.Minute))
}

// armed reports whether the fault's window contains virtual time now.
func (f Fault) armed(now time.Duration) bool {
	from := time.Duration(f.FromHours * float64(time.Hour))
	if now < from {
		return false
	}
	if f.UntilHours > 0 && now >= time.Duration(f.UntilHours*float64(time.Hour)) {
		return false
	}
	return true
}

// Validate rejects malformed faults.
func (f Fault) Validate() error {
	if !knownKinds[f.Kind] {
		return fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
	}
	if f.Rate < 0 || f.Rate > 1 {
		return fmt.Errorf("chaos: %s rate %v outside [0,1]", f.Kind, f.Rate)
	}
	if f.Count < 0 {
		return fmt.Errorf("chaos: %s count %d negative", f.Kind, f.Count)
	}
	if f.UntilHours > 0 && f.UntilHours <= f.FromHours {
		return fmt.Errorf("chaos: %s window [%vh, %vh) is empty", f.Kind, f.FromHours, f.UntilHours)
	}
	if f.AtFraction < 0 || f.AtFraction >= 1 {
		return fmt.Errorf("chaos: %s at_fraction %v outside [0,1)", f.Kind, f.AtFraction)
	}
	if f.Slowdown < 0 {
		return fmt.Errorf("chaos: %s slowdown %v negative", f.Kind, f.Slowdown)
	}
	return nil
}

// Plan is a named, replayable fault scenario: faults are consulted in
// declaration order, and the first armed one of the relevant kind whose
// seeded coin-flip lands fires.
type Plan struct {
	Name   string  `json:"name"`
	Faults []Fault `json:"faults"`
}

// Validate rejects malformed plans.
func (p Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("chaos: plan needs a name")
	}
	for i, f := range p.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// ParsePlan decodes and validates a JSON plan.
func ParsePlan(b []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return Plan{}, fmt.Errorf("chaos: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Plans returns the builtin fault scenarios the chaos e2e suite runs:
// every one must leave scenario-2 deadlines and scenario-3 budgets
// satisfied when the execution layer does its job.
func Plans() []Plan {
	return []Plan{
		{
			// A capacity storm: half of all launches bounce for the whole
			// run, bounded so the search eventually gets through.
			Name: "launch-storm",
			Faults: []Fault{
				{Kind: KindLaunchError, Rate: 0.5, Count: 12, DelaySeconds: 45},
			},
		},
		{
			// Spot reclamation aimed at training: only runs past 25
			// virtual minutes — checkpoint epochs, never probes — are
			// interrupted, twice, at 60% progress.
			Name: "spot-interrupt",
			Faults: []Fault{
				{Kind: KindSpotInterrupt, Rate: 1, Count: 2, AtFraction: 0.6, MinRunMinutes: 25},
			},
		},
		{
			// Boot limbo: some clusters hang in Pending and the wait
			// gives up after 15 booked minutes.
			Name: "waitready-timeout",
			Faults: []Fault{
				{Kind: KindWaitTimeout, Rate: 0.3, Count: 3, HangMinutes: 15},
			},
		},
		{
			// A control-plane brownout from virtual minute 6 to 21:
			// every API call in the window bounces, including Terminate.
			Name: "brownout",
			Faults: []Fault{
				{Kind: KindBrownout, FromHours: 0.1, UntilHours: 0.35, DelaySeconds: 60},
			},
		},
	}
}

// PlanByName resolves a builtin plan.
func PlanByName(name string) (Plan, bool) {
	for _, p := range Plans() {
		if p.Name == name {
			return p, true
		}
	}
	return Plan{}, false
}

// Provider wraps a cloud.Provider with a fault plan. All methods are
// safe for concurrent use; injection decisions serialize on one seeded
// RNG, so a single-threaded call sequence replays identically.
type Provider struct {
	inner cloud.Provider
	plan  Plan

	mu       sync.Mutex
	rng      *rand.Rand
	injected map[Kind]int
	remain   []int // per-fault remaining injections (-1 = unlimited)

	counters map[Kind]*obs.Counter
}

// Wrap arms plan over inner, drawing injection decisions from seed.
// When reg is non-nil every injection is counted in
// mlcd_chaos_faults_total{kind=...}; the series for each armed kind is
// registered eagerly so the exposition is stable even before the first
// fault fires.
func Wrap(inner cloud.Provider, plan Plan, seed int64, reg *obs.Registry) *Provider {
	p := &Provider{
		inner:    inner,
		plan:     plan,
		rng:      rand.New(rand.NewSource(seed)),
		injected: make(map[Kind]int),
		remain:   make([]int, len(plan.Faults)),
		counters: make(map[Kind]*obs.Counter),
	}
	for i, f := range plan.Faults {
		if f.Count > 0 {
			p.remain[i] = f.Count
		} else {
			p.remain[i] = -1
		}
		if reg != nil {
			if _, ok := p.counters[f.Kind]; !ok {
				p.counters[f.Kind] = reg.Counter("mlcd_chaos_faults_total",
					"Faults injected by the chaos provider, by kind.",
					obs.L{Key: "kind", Value: string(f.Kind)})
			}
		}
	}
	return p
}

// Injected returns how many faults of kind have fired so far.
func (p *Provider) Injected(kind Kind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected[kind]
}

// TotalInjected returns the total fault count across kinds.
func (p *Provider) TotalInjected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, v := range p.injected {
		n += v
	}
	return n
}

// pick consults the plan for one opportunity of the given kind, in
// declaration order, and returns the fault that fires (nil when none
// does). dur is the requested run length for run-shaped faults. Callers
// hold p.mu.
func (p *Provider) pick(kind Kind, dur time.Duration) *Fault {
	now := p.inner.Now()
	for i := range p.plan.Faults {
		f := &p.plan.Faults[i]
		if f.Kind != kind || !f.armed(now) || p.remain[i] == 0 {
			continue
		}
		if (kind == KindSpotInterrupt || kind == KindStraggler) && dur < f.minRun() {
			continue
		}
		if p.rng.Float64() >= f.rate() {
			continue
		}
		if p.remain[i] > 0 {
			p.remain[i]--
		}
		p.injected[kind]++
		if c := p.counters[kind]; c != nil {
			c.Inc()
		}
		return f
	}
	return nil
}

// advance moves the wrapped provider's virtual clock forward, when it
// can: a refused call still burns control-plane time.
func (p *Provider) advance(d time.Duration) {
	if ca, ok := p.inner.(cloud.ClockAdvancer); ok {
		ca.Advance(d)
	}
}

// Launch implements cloud.Provider.
func (p *Provider) Launch(d cloud.Deployment) (*cloud.Cluster, error) {
	p.mu.Lock()
	if f := p.pick(KindBrownout, 0); f != nil {
		p.advance(f.delay())
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: brownout: launching %s", cloud.ErrTransient, d)
	}
	if f := p.pick(KindLaunchError, 0); f != nil {
		p.advance(f.delay())
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: injected: launching %s", cloud.ErrTransient, d)
	}
	p.mu.Unlock()
	return p.inner.Launch(d)
}

// WaitReady implements cloud.Provider.
func (p *Provider) WaitReady(c *cloud.Cluster) error {
	p.mu.Lock()
	if f := p.pick(KindBrownout, 0); f != nil {
		p.advance(f.delay())
		p.mu.Unlock()
		return fmt.Errorf("%w: brownout: describing %s", cloud.ErrTransient, c.ID)
	}
	if f := p.pick(KindWaitTimeout, 0); f != nil {
		hang := f.hang()
		p.advance(hang)
		p.mu.Unlock()
		return &cloud.WaitTimeout{Waited: hang}
	}
	p.mu.Unlock()
	return p.inner.WaitReady(c)
}

// Run implements cloud.Provider. The elapsed value tells the resilient
// execution layer exactly what a fault burned: a spot interruption
// reports the partial run, a straggler the stretched one.
func (p *Provider) Run(c *cloud.Cluster, dur time.Duration) (time.Duration, error) {
	p.mu.Lock()
	if f := p.pick(KindSpotInterrupt, dur); f != nil {
		ran := time.Duration(float64(dur) * f.atFraction())
		p.mu.Unlock()
		if _, err := p.inner.Run(c, ran); err != nil {
			return 0, err
		}
		return ran, &cloud.SpotInterruption{Ran: ran}
	}
	if f := p.pick(KindStraggler, dur); f != nil {
		dur = time.Duration(float64(dur) * f.slowdown())
	}
	p.mu.Unlock()
	return p.inner.Run(c, dur)
}

// Terminate implements cloud.Provider. A refused Terminate leaves the
// cluster running — and billing — which is exactly the leak the
// execution layer's terminate retry and terminate_errors metric exist
// to surface.
func (p *Provider) Terminate(c *cloud.Cluster) error {
	p.mu.Lock()
	if f := p.pick(KindBrownout, 0); f != nil {
		p.advance(f.delay())
		p.mu.Unlock()
		return fmt.Errorf("%w: brownout: terminating %s", cloud.ErrTransient, c.ID)
	}
	if p.pick(KindTerminateError, 0) != nil {
		p.mu.Unlock()
		return fmt.Errorf("%w: injected: terminating %s", cloud.ErrTransient, c.ID)
	}
	p.mu.Unlock()
	return p.inner.Terminate(c)
}

// Now implements cloud.Provider.
func (p *Provider) Now() time.Duration { return p.inner.Now() }

// TotalBilled implements cloud.Provider.
func (p *Provider) TotalBilled() float64 { return p.inner.TotalBilled() }

// Advance implements cloud.ClockAdvancer by forwarding to the wrapped
// provider when it keeps virtual time.
func (p *Provider) Advance(d time.Duration) { p.advance(d) }

var (
	_ cloud.Provider      = (*Provider)(nil)
	_ cloud.ClockAdvancer = (*Provider)(nil)
)
