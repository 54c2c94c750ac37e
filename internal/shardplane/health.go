package shardplane

import (
	"fmt"
	"sync"
	"time"
)

// Shard health: the plane probes every shard's journal on a cadence
// (sched.Scheduler.ProbeJournal appends and fsyncs a no-op health
// record) and folds in the shard's own consecutive append-failure
// streak from real traffic. DefaultDegradedAfter consecutive failures
// flip the shard to degraded: the ring stops placing NEW tenants on it, and
// submissions from its existing tenants are refused with
// ErrShardDegraded (the API layer turns that into 503 + Retry-After)
// rather than silently accepted into a scheduler that cannot persist
// them. The first successful probe re-admits the shard — recovery needs
// no operator action beyond fixing the disk.

// ErrShardDegraded refuses a submission whose home shard cannot
// currently persist journal records. Callers should retry later; the
// tenant's history is intact and the shard re-admits itself once
// journal writes succeed again.
var ErrShardDegraded = fmt.Errorf("shardplane: shard journal degraded; retry later")

// DefaultDegradedAfter is how many consecutive journal failures
// (probe or real append) degrade a shard.
const DefaultDegradedAfter = 3

// ShardHealth is one shard's externally visible health.
type ShardHealth struct {
	Shard     int    `json:"shard"`
	State     string `json:"state"` // "healthy" | "degraded"
	ErrStreak int    `json:"err_streak,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// PlaneHealth aggregates every shard. State is "healthy" when every
// shard is healthy, "degraded" while any shard is out of the ring, and
// "down" when no shard can persist — only then should a load balancer
// stop sending traffic, since a degraded plane still admits new tenants
// on its healthy shards.
type PlaneHealth struct {
	State    string        `json:"state"` // "healthy" | "degraded" | "down"
	Healthy  int           `json:"healthy_shards"`
	Degraded int           `json:"degraded_shards"`
	Shards   []ShardHealth `json:"shards"`
}

// shardHealthRec is the plane's internal per-shard record.
type shardHealthRec struct {
	mu         sync.Mutex
	degraded   bool
	probeFails int // consecutive ProbeJournal failures
	lastErr    string
}

// CheckHealth runs one probe round over every shard, degrading and
// re-admitting as warranted. The background loop calls it on
// HealthEvery; tests call it directly for deterministic rounds.
func (p *Plane) CheckHealth() {
	for i := range p.health {
		p.checkShard(i)
	}
}

func (p *Plane) checkShard(i int) {
	s := p.shard(i)
	h := p.health[i]
	err := s.ProbeJournal()

	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.probeFails++
		h.lastErr = err.Error()
	} else {
		h.probeFails = 0
	}
	// Real traffic may have hit the streak threshold between probes; the
	// scheduler's own consecutive append-failure count covers that.
	streak := h.probeFails
	if n := int(s.JournalErrStreak()); n > streak {
		streak = n
	}
	switch {
	case !h.degraded && streak >= DefaultDegradedAfter:
		h.degraded = true
		p.degradedTotal[i].Inc()
		p.healthyGauge[i].Set(0)
	case h.degraded && err == nil && streak == 0:
		h.degraded = false
		h.lastErr = ""
		p.readmitTotal[i].Inc()
		p.healthyGauge[i].Set(1)
	}
}

// Degraded reports whether shard i is currently out of the ring.
func (p *Plane) Degraded(i int) bool {
	h := p.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.degraded
}

// Health snapshots every shard's health and the plane-wide state.
func (p *Plane) Health() PlaneHealth {
	out := PlaneHealth{Shards: make([]ShardHealth, len(p.health))}
	for i, h := range p.health {
		s := p.shard(i)
		h.mu.Lock()
		sh := ShardHealth{Shard: i, State: "healthy", ErrStreak: h.probeFails, LastError: h.lastErr}
		if n := int(s.JournalErrStreak()); n > sh.ErrStreak {
			sh.ErrStreak = n
		}
		if h.degraded {
			sh.State = "degraded"
			out.Degraded++
		} else {
			out.Healthy++
		}
		h.mu.Unlock()
		out.Shards[i] = sh
	}
	switch {
	case out.Healthy == 0:
		out.State = "down"
	case out.Degraded > 0:
		out.State = "degraded"
	default:
		out.State = "healthy"
	}
	return out
}

// healthLoop probes on a fixed cadence until Close or Shutdown.
func (p *Plane) healthLoop(every time.Duration) {
	defer close(p.healthDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-p.healthStop:
			return
		case <-t.C:
			p.CheckHealth()
		}
	}
}
