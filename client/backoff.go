package arbodsclient

import (
	"sync"
	"time"

	"arbods/internal/rng"
)

// jitterSource is the seeded stream behind full-jitter backoff: an
// rng.Stream (SplitMix64), so a fixed Config.Seed backs off identically
// on every run — the property the backoff-bound tests pin.
type jitterSource struct {
	mu sync.Mutex
	s  *rng.Stream
}

func newJitterSource(seed uint64) *jitterSource {
	if seed == 0 {
		seed = 1
	}
	return &jitterSource{s: rng.New(seed)}
}

// uniform draws from [0, ceil); zero ceil draws zero.
func (j *jitterSource) uniform(ceil time.Duration) time.Duration {
	if ceil <= 0 {
		return 0
	}
	j.mu.Lock()
	z := j.s.Uint64()
	j.mu.Unlock()
	return time.Duration(z % uint64(ceil))
}

// retryBudget is the token bucket that keeps retries from amplifying an
// outage: a retry spends one token, a success refunds refundPer (capped
// at max), and an empty bucket fails the request fast. During a total
// outage the client sends at most max extra requests beyond its
// first-attempt rate, no matter how long the outage lasts.
type retryBudget struct {
	mu        sync.Mutex
	tokens    float64
	max       float64
	refundPer float64
}

func newRetryBudget(max, refundPer float64) *retryBudget {
	return &retryBudget{tokens: max, max: max, refundPer: refundPer}
}

// spend takes one token, reporting false when the bucket is dry.
func (b *retryBudget) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refund credits one success.
func (b *retryBudget) refund() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.refundPer
	if b.tokens > b.max {
		b.tokens = b.max
	}
}
