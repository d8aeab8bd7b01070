package store

import (
	"sync"
	"time"
)

// Breaker states.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// probeKey names the sentinel entry Probe writes; it is content-keyed
// like everything else, so it costs one tiny store file.
const probeKey = "smtd.breaker.probe"

// Breaker wraps a Store as a runner.Tier with a circuit breaker:
// Threshold consecutive I/O failures open the circuit, after which
// every operation short-circuits (Load is a miss, Store is dropped) so
// a sick disk degrades the daemon to memory-only caching instead of
// stalling or erroring every cell. After Cooldown, the next operation
// runs as a half-open probe: success closes the circuit, failure
// re-opens it for another cooldown. Misses and corruption are not
// failures — only filesystem errors count.
type Breaker struct {
	under     *Store
	threshold int
	cooldown  time.Duration
	now       func() time.Time // see WithClock

	mu       sync.Mutex
	state    string
	fails    int // consecutive I/O failures while closed
	openedAt time.Time
	stats    BreakerStats
}

// BreakerStats reports breaker activity since construction.
type BreakerStats struct {
	// State is the current circuit state.
	State string
	// Trips counts transitions to open.
	Trips uint64
	// ShortCircuits counts operations refused while open (or while a
	// half-open probe was already in flight).
	ShortCircuits uint64
	// Probes counts half-open probe operations allowed through.
	Probes uint64
}

// NewBreaker wraps under. threshold <= 0 defaults to 5 consecutive
// failures; cooldown <= 0 defaults to 5s.
func NewBreaker(under *Store, threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{
		under:     under,
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		state:     BreakerClosed,
	}
}

// Under returns the wrapped store (for stats reporting).
func (b *Breaker) Under() *Store { return b.under }

// allow decides whether an operation may touch the disk; when the
// cooldown has elapsed it admits exactly one caller as the half-open
// probe and short-circuits the rest until that probe reports back.
func (b *Breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			b.stats.Probes++
			return true
		}
	}
	// Open within cooldown, or half-open with the probe in flight.
	b.stats.ShortCircuits++
	return false
}

// record feeds an operation's outcome back: failures trip or re-open
// the circuit, successes close a half-open one and reset the count.
func (b *Breaker) record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = BreakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= b.threshold {
		if b.state != BreakerOpen {
			b.stats.Trips++
		}
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.fails = 0
	}
}

// Load implements runner.Tier: a short-circuited or failing read is a
// miss (the cache computes instead), never an error.
func (b *Breaker) Load(key string) ([]byte, bool) {
	if !b.allow() {
		return nil, false
	}
	data, ok, err := b.under.Get(key)
	b.record(err)
	if err != nil || !ok {
		return nil, false
	}
	return data, true
}

// Store implements runner.Tier: short-circuited writes are dropped —
// the caller holds the computed value, so nothing is lost but reuse.
func (b *Breaker) Store(key string, data []byte) {
	if !b.allow() {
		return
	}
	b.record(b.under.Put(key, data))
}

// Delete removes key from the underlying store. Short-circuited
// deletes are dropped — a stale entry costs disk space, not
// correctness, and the next overwrite or eviction reclaims it.
func (b *Breaker) Delete(key string) {
	if !b.allow() {
		return
	}
	b.under.Delete(key)
}

// WithClock makes the breaker read time from now instead of the wall
// clock, so a test decides when the cooldown has elapsed. Call it
// before the breaker is shared; now must be safe for concurrent use.
func (b *Breaker) WithClock(now func() time.Time) *Breaker {
	b.now = now
	return b
}

// Probe nudges a degraded circuit toward recovery with a sentinel
// write through the normal gate: inside the cooldown it short-circuits
// and costs nothing; past it, it becomes the half-open probe whose
// success closes the circuit. Health checks call this so recovery does
// not have to wait for organic traffic.
func (b *Breaker) Probe() {
	b.Store(probeKey, []byte("probe"))
}

// Degraded reports whether the circuit is anything but closed — the
// daemon is serving from memory only.
func (b *Breaker) Degraded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != BreakerClosed
}

// State returns the current circuit state.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats snapshots the breaker counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.State = b.state
	return st
}
