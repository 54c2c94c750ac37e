package cloud

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Cluster states over the simulated lifecycle.
type ClusterState int

// Lifecycle: Pending (booting) → Running → Terminated.
const (
	ClusterPending ClusterState = iota
	ClusterRunning
	ClusterTerminated
)

// String names the state.
func (s ClusterState) String() string {
	switch s {
	case ClusterPending:
		return "pending"
	case ClusterRunning:
		return "running"
	case ClusterTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("ClusterState(%d)", int(s))
	}
}

// Cluster is a launched deployment with a billing meter.
type Cluster struct {
	ID         string
	Deployment Deployment
	State      ClusterState
	LaunchedAt time.Duration // virtual time of launch
	ReadyAt    time.Duration // virtual time the cluster became usable
	StoppedAt  time.Duration // virtual time of termination (0 while running)
}

// Billed returns the dollars billed for the cluster as of virtual time now.
func (c *Cluster) Billed(now time.Duration) float64 {
	end := now
	if c.State == ClusterTerminated {
		end = c.StoppedAt
	}
	if end < c.LaunchedAt {
		return 0
	}
	return c.Deployment.CostFor(end - c.LaunchedAt)
}

// Provider is the control-plane surface MLCD's Cloud Interface drives.
type Provider interface {
	// Launch books a cluster for d. The cluster is Pending until its
	// boot latency elapses on the virtual clock.
	Launch(d Deployment) (*Cluster, error)
	// WaitReady advances the virtual clock until the cluster is Running.
	WaitReady(c *Cluster) error
	// Run advances the virtual clock by dur with the cluster billed and
	// returns the virtual time the run actually consumed: more than dur
	// when nodes straggle, less when a typed SpotInterruption cuts it
	// short. Callers that meter cluster time charge exactly this.
	Run(c *Cluster, dur time.Duration) (time.Duration, error)
	// Terminate stops billing for the cluster.
	Terminate(c *Cluster) error
	// Now returns the current virtual time.
	Now() time.Duration
	// TotalBilled returns the dollars billed across all clusters so far.
	TotalBilled() float64
}

// Common control-plane errors.
var (
	ErrQuotaExceeded    = errors.New("cloud: instance quota exceeded")
	ErrClusterNotActive = errors.New("cloud: cluster is not active")
	// ErrTransient is a retryable control-plane failure (capacity blips,
	// API throttling); internal/chaos injects it.
	ErrTransient = errors.New("cloud: transient control-plane failure")
	// ErrSpotInterrupted is returned by Run when the cloud reclaims a
	// spot/preemptible cluster mid-run. The cluster keeps billing until
	// Terminate; the typed SpotInterruption error carries how much of the
	// requested run actually executed (and was billed) before the
	// reclamation.
	ErrSpotInterrupted = errors.New("cloud: spot capacity reclaimed")
	// ErrWaitTimeout is returned by WaitReady when a cluster never became
	// usable within the provider's patience. The typed WaitTimeout error
	// carries how much virtual time the wait burned — billed time, since
	// the cluster was booked the whole while.
	ErrWaitTimeout = errors.New("cloud: cluster never became ready")
)

// SpotInterruption is the typed form of ErrSpotInterrupted: Ran is the
// virtual time the run executed (and billed) before the reclamation, so
// callers can charge the partial chunk and resume from their last
// checkpoint.
type SpotInterruption struct {
	Ran time.Duration
}

func (e *SpotInterruption) Error() string {
	return fmt.Sprintf("cloud: spot capacity reclaimed after %s of run", e.Ran)
}

// Unwrap lets errors.Is(err, ErrSpotInterrupted) match.
func (e *SpotInterruption) Unwrap() error { return ErrSpotInterrupted }

// WaitTimeout is the typed form of ErrWaitTimeout: Waited is the virtual
// time WaitReady burned before giving up — chargeable, since the cluster
// was booked and billing the whole wait.
type WaitTimeout struct {
	Waited time.Duration
}

func (e *WaitTimeout) Error() string {
	return fmt.Sprintf("cloud: cluster never became ready after %s", e.Waited)
}

// Unwrap lets errors.Is(err, ErrWaitTimeout) match.
func (e *WaitTimeout) Unwrap() error { return ErrWaitTimeout }

// ClockAdvancer is an optional Provider refinement: providers whose time
// is virtual can advance it directly. The resilient execution layer uses
// it to sleep retry backoffs and breaker cooldowns on the provider clock
// instead of the wall clock, keeping fault recovery deterministic and
// instantaneous in tests.
type ClockAdvancer interface {
	Advance(d time.Duration)
}

// Quota bounds concurrently running nodes, mirroring EC2 account limits.
type Quota struct {
	MaxCPUNodes int
	MaxGPUNodes int
}

// DefaultQuota matches the paper's experiment scale (§V-A).
var DefaultQuota = Quota{MaxCPUNodes: 100, MaxGPUNodes: 50}

// SimProvider is a deterministic in-memory cloud: a virtual clock, boot
// latencies, quota checks, and per-cluster billing. All methods are safe
// for concurrent use.
type SimProvider struct {
	mu         sync.Mutex
	now        time.Duration
	nextID     int
	quota      Quota
	bootLat    time.Duration
	cpuInUse   int
	gpuInUse   int
	clusters   map[string]*Cluster
	doneBilled float64
}

// NewSimProvider returns a provider with the given quota and per-cluster
// boot latency (how long Launch→Running takes on the virtual clock).
func NewSimProvider(q Quota, bootLatency time.Duration) *SimProvider {
	if q.MaxCPUNodes <= 0 {
		q.MaxCPUNodes = DefaultQuota.MaxCPUNodes
	}
	if q.MaxGPUNodes <= 0 {
		q.MaxGPUNodes = DefaultQuota.MaxGPUNodes
	}
	if bootLatency < 0 {
		bootLatency = 0
	}
	return &SimProvider{
		quota:    q,
		bootLat:  bootLatency,
		clusters: make(map[string]*Cluster),
	}
}

// Launch implements Provider.
func (p *SimProvider) Launch(d Deployment) (*Cluster, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d.Type.IsGPU() {
		if p.gpuInUse+d.Nodes > p.quota.MaxGPUNodes {
			return nil, fmt.Errorf("%w: %d GPU nodes in use, requested %d, limit %d",
				ErrQuotaExceeded, p.gpuInUse, d.Nodes, p.quota.MaxGPUNodes)
		}
		p.gpuInUse += d.Nodes
	} else {
		if p.cpuInUse+d.Nodes > p.quota.MaxCPUNodes {
			return nil, fmt.Errorf("%w: %d CPU nodes in use, requested %d, limit %d",
				ErrQuotaExceeded, p.cpuInUse, d.Nodes, p.quota.MaxCPUNodes)
		}
		p.cpuInUse += d.Nodes
	}
	p.nextID++
	c := &Cluster{
		ID:         fmt.Sprintf("cluster-%04d", p.nextID),
		Deployment: d,
		State:      ClusterPending,
		LaunchedAt: p.now,
		ReadyAt:    p.now + p.bootLat,
	}
	p.clusters[c.ID] = c
	return c, nil
}

// WaitReady implements Provider.
func (p *SimProvider) WaitReady(c *Cluster) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	cl, ok := p.clusters[c.ID]
	if !ok || cl.State == ClusterTerminated {
		return ErrClusterNotActive
	}
	if p.now < cl.ReadyAt {
		p.now = cl.ReadyAt
	}
	cl.State = ClusterRunning
	c.State = ClusterRunning
	return nil
}

// Run implements Provider. The simulated control plane is exact: a
// successful run consumes precisely dur.
func (p *SimProvider) Run(c *Cluster, dur time.Duration) (time.Duration, error) {
	if dur < 0 {
		panic("cloud: negative run duration")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cl, ok := p.clusters[c.ID]
	if !ok || cl.State != ClusterRunning {
		return 0, ErrClusterNotActive
	}
	p.now += dur
	return dur, nil
}

// Terminate implements Provider.
func (p *SimProvider) Terminate(c *Cluster) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	cl, ok := p.clusters[c.ID]
	if !ok {
		return ErrClusterNotActive
	}
	if cl.State == ClusterTerminated {
		return nil // idempotent
	}
	cl.State = ClusterTerminated
	cl.StoppedAt = p.now
	c.State = ClusterTerminated
	c.StoppedAt = p.now
	p.doneBilled += cl.Billed(p.now)
	if cl.Deployment.Type.IsGPU() {
		p.gpuInUse -= cl.Deployment.Nodes
	} else {
		p.cpuInUse -= cl.Deployment.Nodes
	}
	return nil
}

// Advance implements ClockAdvancer: it moves the virtual clock forward
// by d with no cluster work attached — retry backoffs, breaker
// cooldowns, and other waits that burn time but run nothing.
func (p *SimProvider) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	p.mu.Lock()
	p.now += d
	p.mu.Unlock()
}

// Now implements Provider.
func (p *SimProvider) Now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}

// TotalBilled implements Provider.
func (p *SimProvider) TotalBilled() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.doneBilled
	for _, cl := range p.clusters {
		if cl.State != ClusterTerminated {
			total += cl.Billed(p.now)
		}
	}
	return total
}

// InUse returns the currently running (CPU, GPU) node counts.
func (p *SimProvider) InUse() (cpu, gpu int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cpuInUse, p.gpuInUse
}
