// Per-client admission control: token-bucket rate limiting, a bounded
// fair share of the admission queue per client, and a load-shedding
// mode that starts rejecting low-priority work when queue latency
// crosses a threshold — so one hot client degrades gracefully instead
// of starving everyone, and an overloaded daemon sheds load instead of
// collapsing. Clients are keyed by the X-Client-ID header (fallback:
// the remote address), and every rejection carries a Retry-After hint
// the HTTP layer surfaces as a 429.

package service

import (
	"errors"
	"fmt"
	"time"

	"fingers"
)

// Admission rejection sentinels; each reaches the client as a 429 with
// a Retry-After header.
var (
	// ErrRateLimited rejects a client that exhausted its token bucket.
	ErrRateLimited = errors.New("service: client rate limit exceeded")
	// ErrClientShare rejects a client already holding its fair share of
	// the admission queue.
	ErrClientShare = errors.New("service: client queue share exhausted")
	// ErrOverloaded rejects low-priority work while the queue latency
	// exceeds the shedding threshold.
	ErrOverloaded = errors.New("service: shedding load, queue latency over threshold")
)

// AdmissionError is a structured admission rejection: which limit
// fired, for which client, and when a retry is worth attempting.
type AdmissionError struct {
	Client     string
	RetryAfter time.Duration
	Err        error
}

func (e *AdmissionError) Error() string {
	if e.Client != "" {
		return fmt.Sprintf("%v (client %q, retry after %s)", e.Err, e.Client, e.RetryAfter)
	}
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.RetryAfter)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *AdmissionError) Unwrap() error { return e.Err }

// Priority levels a JobSpec may carry besides normal, which the empty
// string and "normal" both mean.
const (
	PriorityLow  = "low"
	PriorityHigh = "high"
)

// priorityRank orders priorities: -1 low, 0 normal, 1 high.
func priorityRank(p string) int {
	switch p {
	case PriorityLow:
		return -1
	case PriorityHigh:
		return 1
	}
	return 0
}

// tokenBucket is one client's rate-limit state under the manager lock.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// take refills the bucket for elapsed time and consumes one token,
// or reports how long until one is available.
func (b *tokenBucket) take(now time.Time, rate float64, burst float64) (ok bool, wait time.Duration) {
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * rate
	}
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / rate * float64(time.Second))
}

// admitLocked applies the three admission gates in order — rate limit,
// fair share, load shedding — for one submission. Called under m.mu,
// with the spec already validated. A nil return admits the job.
func (m *Manager) admitLocked(clientID string, spec fingers.JobSpec, now time.Time) error {
	if rate := m.cfg.ClientRate; rate > 0 && clientID != "" {
		b, ok := m.buckets[clientID]
		if !ok {
			b = &tokenBucket{tokens: m.burst()}
			m.buckets[clientID] = b
		}
		if ok, wait := b.take(now, rate, m.burst()); !ok {
			return &AdmissionError{Client: clientID, RetryAfter: wait, Err: ErrRateLimited}
		}
	}
	if share := m.cfg.MaxQueuedPerClient; share > 0 && clientID != "" {
		if m.queuedBy[clientID] >= share {
			return &AdmissionError{Client: clientID, RetryAfter: time.Second, Err: ErrClientShare}
		}
	}
	if shed := m.cfg.ShedLatency; shed > 0 {
		lat := m.queueLatencyLocked(now)
		rank := priorityRank(spec.Priority)
		// Shed low-priority work at the threshold, normal-priority work
		// at twice the threshold; high priority rides through until the
		// queue itself is full.
		if (rank < 0 && lat > shed) || (rank == 0 && lat > 2*shed) {
			return &AdmissionError{Client: clientID, RetryAfter: lat, Err: ErrOverloaded}
		}
	}
	return nil
}

// burst resolves the token-bucket capacity: ClientBurst, defaulting to
// the larger of the per-second rate and 1.
func (m *Manager) burst() float64 {
	if m.cfg.ClientBurst > 0 {
		return float64(m.cfg.ClientBurst)
	}
	if m.cfg.ClientRate > 1 {
		return m.cfg.ClientRate
	}
	return 1
}

// queueLatencyLocked estimates admission-queue latency as the age of
// the oldest job still waiting for a worker. Zero when the queue is
// empty. Called under m.mu.
func (m *Manager) queueLatencyLocked(now time.Time) time.Duration {
	var oldest time.Time
	for _, at := range m.queuedAt {
		if oldest.IsZero() || at.Before(oldest) {
			oldest = at
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}

// QueueLatency reports the current admission-queue latency estimate.
func (m *Manager) QueueLatency() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queueLatencyLocked(m.now())
}
