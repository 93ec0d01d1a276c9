package disk

import "math"

// RetryPolicy controls how the executor retries transient section-I/O
// faults: capped exponential backoff with deterministic jitter. Delays
// are expressed in modelled seconds so retried I/O reconciles with
// Stats.Time() and the trace timeline.
//
// The zero value is not useful; use DefaultRetryPolicy() or fill the
// fields explicitly. A nil *RetryPolicy means "no retries".
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation
	// (first attempt + retries). Values < 1 mean 1 (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry, in modelled
	// seconds. Doubles each retry.
	BaseDelay float64
	// MaxDelay caps the exponential growth, in modelled seconds.
	// <= 0 means uncapped.
	MaxDelay float64
	// Jitter in [0,1] scales each delay uniformly into
	// [delay*(1-Jitter), delay], deterministically from Seed and
	// the retry's sequence key.
	Jitter float64
	// Seed makes jitter reproducible across runs.
	Seed uint64
}

// DefaultRetryPolicy is tuned for transient-fault injection: four
// attempts with 1ms modelled base delay capped at 50ms.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 4, BaseDelay: 1e-3, MaxDelay: 5e-2, Jitter: 0.5}
}

// Attempts returns the total tries allowed per operation, at least 1.
// Safe on a nil receiver.
func (p *RetryPolicy) Attempts() int {
	if p == nil || p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the modelled backoff before retry number attempt
// (0-based: attempt 0 is the delay after the first failure). key salts
// the deterministic jitter so distinct operations do not back off in
// lockstep.
func (p *RetryPolicy) Delay(attempt int, key uint64) float64 {
	if p == nil || p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay * math.Pow(2, float64(attempt))
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		frac := hashFrac(p.Seed ^ key ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15)
		d *= 1 - float64(j*frac)
	}
	return d
}

// hashFrac maps x to a uniform float64 in [0,1) via splitmix64.
func hashFrac(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(uint64(1)<<53)
}
