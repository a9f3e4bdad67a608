package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// TenantLimits bounds each tenant's admission. The zero value means
// unlimited — every tenant gets the same limits; tenants themselves are
// created on first use.
type TenantLimits struct {
	// RatePerSec is the token-bucket refill rate in instances/second
	// (batch members each consume one token). 0 disables rate limiting.
	RatePerSec float64
	// Burst is the bucket capacity; it defaults to max(RatePerSec, 1)
	// when rate limiting is on.
	Burst int
	// MaxInFlight bounds the tenant's concurrently evaluating instances.
	// 0 disables the quota.
	MaxInFlight int
}

// shedCause classifies a 429 for the per-tenant counters.
type shedCause int

const (
	shedNone shedCause = iota
	shedRate
	shedQuota
	// shedTooLarge is permanent, not transient: the request asks for more
	// instances at once than the tenant's bucket can ever hold, so no
	// amount of waiting admits it. The server answers 400, not 429.
	shedTooLarge
)

// tenant is one tenant's admission state: a token bucket, an in-flight
// gauge, and shed counters. Completion counts and latency percentiles
// live in runtime.Stats.Tenants — the runtime tags every instance with
// its tenant.
type tenant struct {
	limits TenantLimits

	mu     sync.Mutex // guards the bucket
	tokens float64
	last   time.Time

	inFlight  atomic.Int64
	accepted  atomic.Uint64
	shedRate  atomic.Uint64
	shedQuota atomic.Uint64
	shedQueue atomic.Uint64
}

func newTenant(limits TenantLimits) *tenant {
	if limits.RatePerSec > 0 && limits.Burst <= 0 {
		limits.Burst = int(max(limits.RatePerSec, 1))
	}
	return &tenant{
		limits: limits,
		tokens: float64(limits.Burst),
		last:   time.Now(),
	}
}

// admit tries to claim n instances for the tenant. On success the
// tenant's in-flight gauge has been raised by n (the caller must release
// it as instances complete). On refusal it reports the cause and how long
// the caller should wait before retrying.
func (t *tenant) admit(n int) (ok bool, cause shedCause, retryAfter time.Duration) {
	if lim := t.limits.MaxInFlight; lim > 0 {
		if cur := t.inFlight.Add(int64(n)); cur > int64(lim) {
			t.inFlight.Add(int64(-n))
			t.shedQuota.Add(uint64(n))
			// The quota frees as in-flight instances finish; a beat of a
			// typical instance is the honest hint.
			return false, shedQuota, 10 * time.Millisecond
		}
	} else {
		t.inFlight.Add(int64(n))
	}
	if t.limits.RatePerSec > 0 {
		if n > t.limits.Burst {
			// Tokens never exceed Burst, so this request can never be
			// admitted; a Retry-After would send the client into a futile
			// retry loop against an idle server. Answered 400 and, like
			// other client errors, kept out of the shed counters — they
			// track transient overload, which this is not.
			t.inFlight.Add(int64(-n))
			return false, shedTooLarge, 0
		}
		t.mu.Lock()
		now := time.Now()
		t.tokens = min(float64(t.limits.Burst), t.tokens+now.Sub(t.last).Seconds()*t.limits.RatePerSec)
		t.last = now
		if t.tokens < float64(n) {
			need := float64(n) - t.tokens
			t.mu.Unlock()
			t.inFlight.Add(int64(-n))
			t.shedRate.Add(uint64(n))
			return false, shedRate, time.Duration(need / t.limits.RatePerSec * float64(time.Second))
		}
		t.tokens -= float64(n)
		t.mu.Unlock()
	}
	return true, shedNone, 0
}

// accept counts n instances as admitted to the runtime. Separate from
// admit because the caller's global checks (queueing delay, draining)
// run between the two; only what passes them all is truly accepted.
func (t *tenant) accept(n int) { t.accepted.Add(uint64(n)) }

// unaccept reverses accept for admitted instances that never reached
// the runtime after all (decode/resolve failure, batch second-step
// refusal), keeping the accepted counter equal to instances run.
func (t *tenant) unaccept(n int) { t.accepted.Add(^uint64(n - 1)) }

// release returns n in-flight claims (instances completed).
func (t *tenant) release(n int) { t.inFlight.Add(int64(-n)) }

// unadmit rolls back a successful admit whose request was then refused
// by a later layer (queueing-delay shed, draining): the in-flight claim
// and the rate-bucket tokens both return, so the shed layers compose
// instead of compounding — a tenant shed by the global queue must not
// also find its rate budget burned once the overload clears.
func (t *tenant) unadmit(n int) {
	t.inFlight.Add(int64(-n))
	if t.limits.RatePerSec > 0 {
		t.mu.Lock()
		t.tokens = min(float64(t.limits.Burst), t.tokens+float64(n))
		t.mu.Unlock()
	}
}

// admission snapshots the tenant's counters for /v1/stats.
func (t *tenant) admission() api.TenantAdmission {
	return api.TenantAdmission{
		Accepted:  t.accepted.Load(),
		ShedRate:  t.shedRate.Load(),
		ShedQuota: t.shedQuota.Load(),
		ShedQueue: t.shedQueue.Load(),
		InFlight:  t.inFlight.Load(),
	}
}
