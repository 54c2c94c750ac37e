package mlcdsys

import (
	"context"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/obs"
)

// The launch retry policy: capped exponential backoff with
// deterministic jitter, slept on the provider clock when it is virtual
// (cloud.ClockAdvancer) and on the wall clock otherwise.
const (
	launchAttempts = 4                // total Launch attempts per launch
	backoffBase    = 15 * time.Second // delay before the first retry
	backoffFactor  = 2                // growth per retry
	backoffCap     = 4 * time.Minute  // per-retry cap
	// launchWaitLimit is the per-launch deadline on cumulative waiting
	// (backoffs plus breaker cooldowns): once a launch has burned this
	// much virtual time waiting, it gives up rather than eroding more of
	// the job's headroom.
	launchWaitLimit = 30 * time.Minute
)

// The per-provider circuit breaker.
const (
	breakerThreshold = 5               // consecutive transients that open it
	breakerCooldown  = 5 * time.Minute // open duration before a half-open probe
)

// retryBackoff returns the delay before retry number attempt (0-based)
// of a launch for d. The ±20% jitter is derived from (deployment,
// attempt) rather than a shared RNG stream, so concurrent jobs cannot
// perturb each other's retry timing and a seeded run replays exactly.
func retryBackoff(d cloud.Deployment, attempt int) time.Duration {
	b := float64(backoffBase) * math.Pow(backoffFactor, float64(attempt))
	if b > float64(backoffCap) {
		b = float64(backoffCap)
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(d.Key()))
	_, _ = h.Write([]byte(strconv.Itoa(attempt)))
	frac := float64(h.Sum64()%1000) / 1000 // [0, 1)
	return time.Duration(b * (0.8 + 0.4*frac))
}

// Resilience bundles the execution layer's training fault-tolerance
// knobs. The zero value leaves checkpointing off, reproducing the
// pre-resilience single-Run training path exactly on a fault-free
// provider.
type Resilience struct {
	// CheckpointEvery splits the training run into checkpointed chunks
	// of this much training time: a spot interruption only loses the
	// partial chunk since the last checkpoint, and training resumes
	// there on a relaunched cluster. 0 disables checkpointing — an
	// interruption then restarts training from scratch.
	CheckpointEvery time.Duration

	// MaxResumes bounds how many relaunch+resume cycles one training run
	// may absorb (spot interruptions, boot timeouts) before Deploy gives
	// up (default 3; negative disables resumption).
	MaxResumes int
}

func (r Resilience) withDefaults() Resilience {
	if r.MaxResumes == 0 {
		r.MaxResumes = 3
	} else if r.MaxResumes < 0 {
		r.MaxResumes = 0
	}
	return r
}

// Breaker states, exported on the mlcd_breaker_state gauge.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// breaker is a per-provider circuit breaker on the virtual clock: after
// breakerThreshold consecutive transient launch failures it opens, and
// every caller arriving while it is open waits out the remaining
// cooldown (on the provider clock) before the half-open probe. On a
// virtual clock the wait is an Advance — instantaneous in wall time,
// charged against the job's headroom — so a control-plane brownout is
// survived by sitting it out rather than bleeding every probe into
// failure.
type breaker struct {
	mu          sync.Mutex
	consecutive int
	state       int
	openedAt    time.Duration

	gauge       *obs.Gauge
	transitions func(to string) *obs.Counter
}

func newBreaker(reg *obs.Registry) *breaker {
	b := &breaker{
		gauge: reg.Gauge("mlcd_breaker_state", "Circuit breaker state (0 closed, 1 open, 2 half-open)."),
		transitions: func(to string) *obs.Counter {
			return reg.Counter("mlcd_breaker_transitions_total",
				"Circuit breaker state transitions.", obs.L{Key: "to", Value: to})
		},
	}
	// Register every transition series eagerly so the exposition is
	// stable whether or not the breaker ever trips.
	b.transitions("open")
	b.transitions("half_open")
	b.transitions("closed")
	return b
}

// acquire admits one launch attempt at virtual time now, returning how
// long the caller must wait first (the remaining cooldown of an open
// breaker; 0 when closed or half-open). The caller sleeps the returned
// wait on the provider clock; the breaker transitions to half-open on
// the assumption the wait is honored.
func (b *breaker) acquire(now time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return 0
	}
	wait := b.openedAt + breakerCooldown - now
	if wait < 0 {
		wait = 0
	}
	b.state = breakerHalfOpen
	b.gauge.Set(breakerHalfOpen)
	b.transitions("half_open").Inc()
	return wait
}

// success records a successful launch: the circuit closes.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	if b.state != breakerClosed {
		b.state = breakerClosed
		b.gauge.Set(breakerClosed)
		b.transitions("closed").Inc()
	}
}

// failure records a transient launch failure at virtual time now: a
// failed half-open probe reopens immediately, and breakerThreshold
// consecutive failures open a closed circuit.
func (b *breaker) failure(now time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.consecutive >= breakerThreshold) {
		b.state = breakerOpen
		b.openedAt = now
		b.gauge.Set(breakerOpen)
		b.transitions("open").Inc()
	}
}

// sleep waits d of provider time: an Advance on virtual-clock providers
// (instantaneous, deterministic), a cancellable timer otherwise. It
// returns early when ctx is done.
func (s *System) sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ca, ok := s.provider.(cloud.ClockAdvancer); ok {
		ca.Advance(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
