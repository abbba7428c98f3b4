package server

import (
	"sync"
	"time"
)

// Bucket is a token-bucket admission limiter: each admitted request takes
// one token, tokens refill at rate per second up to burst. When empty, Take
// reports how long until the next token so the caller can return an honest
// Retry-After instead of queueing work it cannot serve in time.
//
// A nil Bucket (or one built with rate <= 0) admits everything — admission
// control is opt-in per tenant.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewBucket builds a limiter; rate <= 0 returns nil (unlimited). A burst
// below 1 is raised to 1 so a fresh bucket can admit at least one request.
// now is injectable for tests; nil selects time.Now.
func NewBucket(rate, burst float64, now func() time.Time) *Bucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

// TakeN attempts to admit n decisions at once (a batched request is
// charged per decision, not per round trip). On refusal it returns the
// wait until n tokens will have accumulated — which may exceed what the
// burst can ever hold; such requests are simply never admitted whole, and
// the retry hint says how far away they are.
func (b *Bucket) TakeN(n float64) (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	if dt := t.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	need := (n - b.tokens) / b.rate // seconds until enough tokens
	return false, time.Duration(need * float64(time.Second))
}
