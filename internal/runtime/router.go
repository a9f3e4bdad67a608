package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// This file is the routing half of the cluster backend: consistent shard
// placement, replica load balancing, the per-replica circuit breaker, and
// the per-shard latency histogram that drives percentile hedging.
// cluster.go owns the per-query lifecycle (attempts, retries, hedges) on
// top of it.

// LBPolicy selects how a shard picks the replica for a query.
type LBPolicy int

const (
	// RoundRobin rotates through the shard's healthy replicas.
	RoundRobin LBPolicy = iota
	// LeastInFlight picks the healthy replica with the fewest queries
	// currently outstanding — the strongest signal, at the cost of
	// scanning every replica.
	LeastInFlight
	// PowerOfTwo samples two healthy replicas and keeps the less loaded —
	// most of LeastInFlight's benefit at O(1) cost ("the power of two
	// choices").
	PowerOfTwo
)

// String renders the policy as its dfsd -lb flag value.
func (p LBPolicy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case LeastInFlight:
		return "least"
	case PowerOfTwo:
		return "p2c"
	}
	return fmt.Sprintf("LBPolicy(%d)", int(p))
}

// ParseLBPolicy parses a dfsd -lb policy name.
func ParseLBPolicy(name string) (LBPolicy, error) {
	switch name {
	case "rr", "roundrobin":
		return RoundRobin, nil
	case "least", "least-in-flight":
		return LeastInFlight, nil
	case "p2c", "power-of-two":
		return PowerOfTwo, nil
	}
	return 0, fmt.Errorf("runtime: unknown load-balancing policy %q (want rr, least or p2c)", name)
}

// jumpHash is Lamping–Veach jump consistent hashing: a uniform, stateless
// map from a 64-bit key to one of n buckets where growing n from n to n+1
// moves only 1/(n+1) of the keys — the consistent-hash property without a
// ring to maintain.
func jumpHash(key uint64, n int) int {
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// splitmix64 finalizes a weak sequence number into a well-mixed hash; it
// spreads unroutable (volatile) queries uniformly over shards and feeds
// the power-of-two replica sampler.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// JumpHash exposes jump consistent hashing for layers that build rings of
// their own above the cluster — the dfsd front-end peer tier places each
// sharing identity's home node with the same function that places its
// backend shard, so both layers agree on what "one home per query" means.
func JumpHash(key uint64, n int) int { return jumpHash(key, n) }

// PeerBreaker is the per-replica circuit breaker exported for reuse one
// layer up: the front-end peer tier runs one per remote dfsd node, with
// the same closed → open → half-open probe lifecycle replicas get.
type PeerBreaker struct{ br breaker }

// NewPeerBreaker creates a breaker that opens after `after` consecutive
// failures and admits a half-open probe every cooldown.
func NewPeerBreaker(after int, cooldown time.Duration) *PeerBreaker {
	p := &PeerBreaker{}
	p.br.after = int32(max(after, 1))
	p.br.cooldown = cooldown
	return p
}

// Admissible is the read-only availability check: closed, or open with
// the cooldown elapsed (a probe could be admitted). Ring-membership scans
// use it without claiming the probe slot.
func (p *PeerBreaker) Admissible() bool { return p.br.admissible(time.Now().UnixNano()) }

// Admit claims the admission for one attempt; for an open breaker past
// its cooldown this claims the single half-open probe.
func (p *PeerBreaker) Admit() bool { return p.br.admit(time.Now().UnixNano()) }

// Success feeds one successful round trip.
func (p *PeerBreaker) Success() { p.br.success() }

// Failure feeds one transport failure or refusal.
func (p *PeerBreaker) Failure() { p.br.failure(time.Now().UnixNano()) }

// Trips reports how many times the breaker has opened.
func (p *PeerBreaker) Trips() uint64 { return p.br.trips.Load() }

// --- circuit breaker ---

// breaker states. Transitions: closed --(BreakAfter consecutive
// failures)--> open --(cooldown elapses; one probe admitted)--> half-open
// --(probe succeeds)--> closed, or --(probe fails)--> open again.
const (
	brClosed int32 = iota
	brOpen
	brHalfOpen
)

// breaker is a per-replica circuit breaker fed by the cluster's error,
// timeout and success observations. It is lock-free: state transitions
// race benignly (the worst case is one extra probe reaching a sick
// replica).
type breaker struct {
	state    atomic.Int32
	fails    atomic.Int32 // consecutive failures while closed/half-open
	openedAt atomic.Int64 // wall time (ns) of the closed->open transition
	trips    atomic.Uint64

	after    int32 // consecutive failures that open the breaker
	cooldown time.Duration
}

// admissible is the read-only availability check: closed, or open with
// the cooldown elapsed (a probe could be admitted). Selection scans use
// it to rank candidates without claiming the probe slot.
func (b *breaker) admissible(now int64) bool {
	switch b.state.Load() {
	case brClosed:
		return true
	case brOpen:
		return now-b.openedAt.Load() >= int64(b.cooldown)
	default: // half-open: the probe is already out
		return false
	}
}

// admit claims the admission for one attempt. For an open breaker past its
// cooldown this claims the single half-open probe slot; only the caller
// that wins the claim may submit, so a probe is never stranded.
func (b *breaker) admit(now int64) bool {
	switch b.state.Load() {
	case brClosed:
		return true
	case brOpen:
		if now-b.openedAt.Load() < int64(b.cooldown) {
			return false
		}
		return b.state.CompareAndSwap(brOpen, brHalfOpen)
	default:
		return false
	}
}

// success feeds one successful completion.
func (b *breaker) success() {
	b.fails.Store(0)
	b.state.Store(brClosed)
}

// failure feeds one error or timeout observation at wall time now (ns).
func (b *breaker) failure(now int64) {
	if b.state.Load() == brHalfOpen {
		// Failed probe: straight back to open for another cooldown.
		b.openedAt.Store(now)
		b.state.Store(brOpen)
		return
	}
	if b.fails.Add(1) >= b.after && b.state.CompareAndSwap(brClosed, brOpen) {
		b.openedAt.Store(now)
		b.trips.Add(1)
		b.fails.Store(0)
	}
}

// --- replica ---

// replica is one backend copy within a shard: the backend itself, the
// in-flight gauge the balancers read, the circuit breaker, and its traffic
// counters.
type replica struct {
	be Backend

	inFlight atomic.Int64
	brk      breaker

	queries  atomic.Uint64 // attempts handed to this replica (incl. hedges/retries)
	errors   atomic.Uint64 // attempts that reported an error
	timeouts atomic.Uint64 // attempts abandoned by the per-attempt deadline
}

func newReplica(be Backend, breakAfter int32, cooldown time.Duration) *replica {
	r := &replica{be: be}
	r.brk.after = breakAfter
	r.brk.cooldown = cooldown
	return r
}

// exec submits one attempt — a single query or a combined sub-batch — and
// reports its outcome once every member has: the first error any member
// reported, or nil.
func (r *replica) exec(qs []Query, done func(error)) {
	r.queries.Add(1)
	r.inFlight.Add(1)
	if len(qs) == 1 {
		r.be.Exec(qs, func(_ int, err error) {
			r.inFlight.Add(-1)
			done(err)
		})
		return
	}
	var (
		mu    sync.Mutex
		left  = len(qs)
		first error
	)
	r.be.Exec(qs, func(_ int, err error) {
		mu.Lock()
		left--
		if first == nil {
			first = err
		}
		last, err := left == 0, first
		mu.Unlock()
		if last {
			r.inFlight.Add(-1)
			done(err)
		}
	})
}

// --- shard-level replica selection ---

// cshard is one consistent-hash partition of the cluster: R replicas plus
// the selection state and the latency histogram driving hedge delays.
type cshard struct {
	replicas []*replica
	rr       atomic.Uint64 // round-robin cursor / p2c sample stream
	lat      hist.Hist
}

// pick selects a replica for a new attempt under the policy, skipping
// replicas whose bit is set in exclude (already tried by this query) and
// replicas whose breaker is open. When every replica is excluded or
// broken it falls back to ignoring first the breaker, then the exclusion
// — availability over perfect placement; a completely dead shard still
// gets traffic (and fast errors) rather than none.
func (sh *cshard) pick(policy LBPolicy, exclude uint64, now int64) *replica {
	if len(sh.replicas) == 1 {
		return sh.replicas[0]
	}
	if r := sh.pickAvailable(policy, exclude, now); r != nil {
		return r
	}
	if r := sh.pickAvailable(policy, 0, now); r != nil {
		return r
	}
	// Whole shard broken: least-loaded untried, then least-loaded overall.
	if r := sh.pickLeast(exclude); r != nil {
		return r
	}
	return sh.pickLeast(0)
}

// pickAvailable applies the policy over non-excluded, breaker-admitted
// replicas; nil when none qualifies. The returned replica's admission
// (including the half-open probe slot, if that's what it was) is claimed.
func (sh *cshard) pickAvailable(policy LBPolicy, exclude uint64, now int64) *replica {
	n := len(sh.replicas)
	switch policy {
	case LeastInFlight:
		// Rank read-only, then claim; a lost probe-claim race excludes the
		// candidate and re-ranks, so a probe slot is never stranded.
		for {
			var best *replica
			for i, r := range sh.replicas {
				if exclude&(1<<uint(i)) != 0 || !r.brk.admissible(now) {
					continue
				}
				if best == nil || r.inFlight.Load() < best.inFlight.Load() {
					best = r
				}
			}
			if best == nil {
				return nil
			}
			if best.brk.admit(now) {
				return best
			}
			exclude |= 1 << uint(sh.index(best))
		}
	case PowerOfTwo:
		h := splitmix64(sh.rr.Add(1))
		a := sh.replicas[int(h%uint64(n))]
		b := sh.replicas[int((h>>32)%uint64(n))]
		if b.inFlight.Load() < a.inFlight.Load() {
			a, b = b, a
		}
		for _, r := range []*replica{a, b} {
			if !sh.excluded(r, exclude) && r.brk.admit(now) {
				return r
			}
		}
		// Both samples unusable: degrade to a round-robin style scan.
		fallthrough
	default: // RoundRobin
		start := sh.rr.Add(1)
		for i := 0; i < n; i++ {
			r := sh.replicas[int((start+uint64(i))%uint64(n))]
			if !sh.excluded(r, exclude) && r.brk.admit(now) {
				return r
			}
		}
		return nil
	}
}

// pickLeast is the degraded-mode selector: least in flight among
// non-excluded replicas, breaker ignored.
func (sh *cshard) pickLeast(exclude uint64) *replica {
	var best *replica
	for i, r := range sh.replicas {
		if exclude&(1<<uint(i)) != 0 {
			continue
		}
		if best == nil || r.inFlight.Load() < best.inFlight.Load() {
			best = r
		}
	}
	return best
}

// excluded reports whether r's bit is set in the exclusion mask.
func (sh *cshard) excluded(r *replica, exclude uint64) bool {
	if exclude == 0 {
		return false
	}
	for i, cand := range sh.replicas {
		if cand == r {
			return exclude&(1<<uint(i)) != 0
		}
	}
	return false
}

// index returns r's position within the shard (for exclusion masks).
func (sh *cshard) index(r *replica) int {
	for i, cand := range sh.replicas {
		if cand == r {
			return i
		}
	}
	return -1
}
