package cluster

import (
	"sync"
	"time"
)

// Breaker states as reported by State and the /healthz peers map.
const (
	StateClosed   = "closed"
	StateOpen     = "open"
	StateHalfOpen = "half-open"
)

// Breaker is a per-peer circuit breaker: after Threshold consecutive
// failures it opens for Cooldown, short-circuiting every request to the
// peer (Allow returns false) so a dead peer costs one timeout per
// cooldown instead of one per lookup. After the cooldown one probe
// request is let through (half-open); its success closes the breaker,
// its failure re-opens it for another cooldown.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool
}

// newBreaker builds a breaker; threshold <= 0 means 3 and cooldown <= 0
// means 10 s, the defaults Options documents. The default tolerates the
// one failed ping a node sends to a peer that has not started listening
// yet, so booting a cluster node by node never opens a breaker.
func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a request may be sent. While open it refuses;
// once the cooldown has elapsed it admits exactly one probe at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	if b.now().Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful exchange with the peer, closing the
// breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed exchange; at the threshold the breaker
// (re-)opens for a full cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	b.fails++
	b.probing = false
	if b.fails >= b.threshold {
		b.openUntil = b.now().Add(b.cooldown)
	}
	b.mu.Unlock()
}

// State reports "closed", "open", or "half-open" (cooldown elapsed,
// next request is a probe).
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return StateClosed
	}
	if b.probing || !b.now().Before(b.openUntil) {
		return StateHalfOpen
	}
	return StateOpen
}

// Failures reports the consecutive-failure count.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}
