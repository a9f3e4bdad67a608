package runtime

import (
	"container/list"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/value"
)

// --- SIEVE cache unit tests ---

func qk(args string) queryKey { return queryKey{args: args} }

// hit looks args up the way the dispatcher does, from rendered bytes.
func hit(c *sieve, args string, now time.Time) bool {
	return c.get(nil, 0, []byte(args), now)
}

// cached reports whether args has an entry, without marking it visited.
func cached(c *sieve, args string) bool {
	_, ok := c.entries[qk(args)]
	return ok
}

// checkSieve verifies the cache's structure: the queue walked from the head
// reaches the tail through exactly the mapped slots, the links agree both
// ways, every slot is queued or free, and the hand rests on a queued slot
// or nowhere.
func checkSieve(c *sieve) error {
	n, prev, handQueued := 0, -1, c.hand < 0
	for i := c.head; i >= 0; i = c.slots[i].next {
		if n++; n > len(c.slots) {
			return fmt.Errorf("queue does not end within %d slots", len(c.slots))
		}
		s := &c.slots[i]
		if s.prev != prev {
			return fmt.Errorf("slot %d: prev %d, want %d", i, s.prev, prev)
		}
		if j, ok := c.entries[s.key]; !ok || j != i {
			return fmt.Errorf("slot %d (%q) is queued but mapped to %d (mapped %v)", i, s.key.args, j, ok)
		}
		handQueued = handQueued || i == c.hand
		prev = i
	}
	switch {
	case c.tail != prev:
		return fmt.Errorf("tail %d, but the queue ends at %d", c.tail, prev)
	case n != len(c.entries):
		return fmt.Errorf("%d slots queued, %d entries mapped", n, len(c.entries))
	case n+len(c.free) != len(c.slots):
		return fmt.Errorf("%d queued + %d free slots of %d", n, len(c.free), len(c.slots))
	case !handQueued:
		return fmt.Errorf("hand %d is not on a queued slot", c.hand)
	}
	return nil
}

func mustCheckSieve(t *testing.T, c *sieve) {
	t.Helper()
	if err := checkSieve(c); err != nil {
		t.Fatal(err)
	}
}

// TestSieveHitEntrySurvivesEviction: the oldest entry, hit since its
// insertion, is passed over by the next eviction, which takes the oldest
// unvisited entry instead.
func TestSieveHitEntrySurvivesEviction(t *testing.T) {
	var c sieve
	c.init(3, 0)
	var t0 time.Time
	for _, k := range []string{"a", "b", "c"} {
		if c.put(qk(k), t0) {
			t.Fatalf("put %q evicted from a cache with room", k)
		}
	}
	if !hit(&c, "a", t0) {
		t.Fatal("a should be cached")
	}
	if !c.put(qk("d"), t0) {
		t.Fatal("put into a full cache should evict")
	}
	mustCheckSieve(t, &c)
	if !cached(&c, "a") {
		t.Fatal("a was hit since its insertion and should survive the eviction")
	}
	if cached(&c, "b") {
		t.Fatal("b, the oldest unvisited entry, should have been evicted")
	}
	if !cached(&c, "c") || !cached(&c, "d") {
		t.Fatal("c and d should be cached")
	}
}

// TestSieveOneTimeBurst: a burst of one-time identities three times the
// capacity evicts only entries never hit. The hot entries, hit once before
// the burst, all survive it; an LRU would have evicted them after capacity
// minus four insertions.
func TestSieveOneTimeBurst(t *testing.T) {
	const capacity, burst = 8, 24
	var c sieve
	c.init(capacity, 0)
	var t0 time.Time
	hot := []string{"h0", "h1", "h2", "h3"}
	for _, k := range hot {
		c.put(qk(k), t0)
		if !hit(&c, k, t0) {
			t.Fatalf("%s should be cached", k)
		}
	}
	evictions := 0
	for i := range burst {
		if c.put(qk(fmt.Sprintf("once%d", i)), t0) {
			evictions++
		}
		mustCheckSieve(t, &c)
		for _, k := range hot {
			if !cached(&c, k) {
				t.Fatalf("burst insertion %d evicted %s, which was hit", i, k)
			}
		}
	}
	if want := burst - (capacity - len(hot)); evictions != want {
		t.Errorf("%d evictions, want %d", evictions, want)
	}
	if len(c.entries) != capacity {
		t.Errorf("%d entries, want %d", len(c.entries), capacity)
	}
}

// TestSieveTTLExpiryUnderHand: an entry the hand rests on that expires on
// contact hands the hand on to its newer neighbour, and later evictions
// keep working.
func TestSieveTTLExpiryUnderHand(t *testing.T) {
	var c sieve
	c.init(3, time.Second)
	t0 := time.Unix(100, 0)
	for _, k := range []string{"a", "b", "c"} {
		c.put(qk(k), t0)
	}
	hit(&c, "a", t0)
	c.put(qk("d"), t0) // passes a, evicts b, rests on c
	if c.hand != c.entries[qk("c")] {
		t.Fatalf("hand on slot %d, want c's slot %d", c.hand, c.entries[qk("c")])
	}
	t1 := t0.Add(2 * time.Second)
	if hit(&c, "c", t1) {
		t.Fatal("c is past its TTL and should miss")
	}
	mustCheckSieve(t, &c)
	if cached(&c, "c") {
		t.Fatal("expired c should have been removed on contact")
	}
	if c.hand != c.entries[qk("d")] {
		t.Fatalf("hand on slot %d, want d's slot %d", c.hand, c.entries[qk("d")])
	}
	for _, k := range []string{"e", "f", "g", "h"} {
		c.put(qk(k), t1)
		mustCheckSieve(t, &c)
		if !hit(&c, k, t1) {
			t.Fatalf("fresh %s should hit", k)
		}
	}
}

// TestSieveChurn: cycling more identities than fit never grows the cache
// past its capacity or breaks the queue.
func TestSieveChurn(t *testing.T) {
	var c sieve
	c.init(8, 0)
	var t0 time.Time
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for round := 0; round < 50; round++ {
		for _, k := range keys {
			if !hit(&c, k, t0) {
				c.put(qk(k), t0)
			}
			if len(c.entries) > 8 {
				t.Fatalf("cache grew past capacity: %d", len(c.entries))
			}
		}
		mustCheckSieve(t, &c)
	}
}

// refLRU is a textbook LRU over container/list: the yardstick SIEVE is
// held to on the Zipf trace.
type refLRU struct {
	cap   int
	order *list.List // front is the most recently used
	at    map[int]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, order: list.New(), at: make(map[int]*list.Element, capacity)}
}

// access looks k up, inserting it on a miss; it reports a hit.
func (l *refLRU) access(k int) bool {
	if e, ok := l.at[k]; ok {
		l.order.MoveToFront(e)
		return true
	}
	if l.order.Len() == l.cap {
		old := l.order.Back()
		l.order.Remove(old)
		delete(l.at, old.Value.(int))
	}
	l.at[k] = l.order.PushFront(k)
	return false
}

// TestSieveBeatsLRUOnZipf replays a seeded Zipf(1.01) trace over 262,144
// identities — shared_zipf's key distribution — into 1,024 entries (one
// shard of an 8,192-entry cache). After warm-up, SIEVE's miss ratio must
// be at most 0.9 of the LRU reference's on the same stream.
func TestSieveBeatsLRUOnZipf(t *testing.T) {
	const (
		capacity = 1024
		keys     = 262144
		warm     = 100_000
		measured = 200_000
	)
	for seed := int64(1); seed <= 3; seed++ {
		z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.01, 1, keys-1)
		var c sieve
		c.init(capacity, 0)
		lru := newRefLRU(capacity)
		var t0 time.Time
		var buf []byte
		var sieveMiss, lruMiss int
		for i := 0; i < warm+measured; i++ {
			k := int(z.Uint64())
			buf = strconv.AppendInt(buf[:0], int64(k), 10)
			sieveHit := c.get(nil, 0, buf, t0)
			if !sieveHit {
				c.put(queryKey{args: string(buf)}, t0)
			}
			lruHit := lru.access(k)
			if i >= warm {
				if !sieveHit {
					sieveMiss++
				}
				if !lruHit {
					lruMiss++
				}
			}
		}
		mustCheckSieve(t, &c)
		s, l := float64(sieveMiss)/measured, float64(lruMiss)/measured
		t.Logf("seed %d: miss ratio SIEVE %.3f, LRU %.3f", seed, s, l)
		if s > 0.9*l {
			t.Errorf("seed %d: SIEVE miss ratio %.3f, want ≤ 0.9 × LRU's %.3f", seed, s, l)
		}
	}
}

// FuzzCacheOps runs random put, get and clock-advance sequences against a
// map model of what was put when. A hit must be of an identity the model
// holds, unexpired; an identity the cache still maps must hit; the cache
// stays within its capacity, and its map and queue agree after every step.
// The first two bytes pick the capacity (1–8) and the TTL (0–3 ticks).
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{3, 0, 0x00, 0x01, 0x02, 0x40, 0x03, 0x04, 0x41, 0x05})
	f.Add([]byte{2, 2, 0x00, 0x01, 0x40, 0x81, 0x40, 0x82, 0x02, 0x41, 0xc1})
	f.Add([]byte{8, 1, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x41, 0x49, 0x80, 0x4a})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		capacity, ttl := 1+int(ops[0]%8), time.Duration(ops[1]%4)*time.Second
		var c sieve
		c.init(capacity, ttl)
		model := map[string]time.Time{} // identity -> when it was last put
		now := time.Unix(1000, 0)
		for step, op := range ops[2:] {
			k := strconv.Itoa(int(op & 0x0f))
			switch op >> 6 {
			case 0: // put
				evicted := c.put(qk(k), now)
				if evicted && len(c.entries) != capacity {
					t.Fatalf("step %d: put %s evicted with %d of %d entries", step, k, len(c.entries), capacity)
				}
				model[k] = now
			case 1, 3: // get
				at, put := model[k]
				fresh := put && (ttl == 0 || now.Sub(at) <= ttl)
				mapped := cached(&c, k)
				got := hit(&c, k, now)
				if got && !fresh {
					t.Fatalf("step %d: get %s hit, but it was put at %v, now %v, ttl %v (put: %v)", step, k, at, now, ttl, put)
				}
				if mapped && fresh && !got {
					t.Fatalf("step %d: get %s missed a mapped, unexpired entry", step, k)
				}
			case 2: // the clock advances 1–4 ticks
				now = now.Add(time.Duration(1+op&0x03) * time.Second)
			}
			if len(c.entries) > capacity {
				t.Fatalf("step %d: %d entries, capacity %d", step, len(c.entries), capacity)
			}
			for key, i := range c.entries {
				if at, ok := model[key.args]; !ok || (ttl > 0 && !c.slots[i].at.Equal(at)) {
					t.Fatalf("step %d: entry %s stamped %v, model %v (put: %v)", step, key.args, c.slots[i].at, at, ok)
				}
			}
			if err := checkSieve(&c); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// --- identity placement ---

// hashRecorder is an Instant backend that records each query's placement
// hash by its cost (quickstart's three foreign tasks cost 2, 3 and 1).
type hashRecorder struct {
	mu     sync.Mutex
	byCost map[int]uint64
}

func (b *hashRecorder) Exec(qs []Query, each func(int, error)) {
	b.mu.Lock()
	for _, q := range qs {
		b.byCost[q.Cost] = q.Hash
	}
	b.mu.Unlock()
	for i := range qs {
		each(i, nil)
	}
}

// TestIdentityHashGolden pins the placement hash of quickstart's three
// sharing identities — an int input above 99, no inputs, and a string plus
// a number — end to end: rendered by AppendQueryArgs, hashed by
// hashIdentity, handed to the backend as Query.Hash. A Cluster places by
// this hash and the peer tier homes by it, so a change here moves queries
// between shards and nodes across a deploy.
func TestIdentityHashGolden(t *testing.T) {
	s, sources := quickstart(t)
	sources["customer_id"] = value.Int(1234567)
	rec := &hashRecorder{byCost: map[int]uint64{}}
	svc := New(Config{Backend: rec, Query: QueryConfig{Dedup: true}})
	defer svc.Close()
	if _, err := svc.Do(s, sources, engine.MustParseStrategy("PSE100")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		task string
		cost int
		want uint64
	}{
		{"tier", 2, 0xfad5bc67011f6add},
		{"warehouse_load", 3, 0xedf1e5ff42b81979},
		{"upgrade", 1, 0xa36bb45ed0ef4454},
	} {
		if got := rec.byCost[tc.cost]; got != tc.want {
			t.Errorf("%s: identity hash %#x, want %#x", tc.task, got, tc.want)
		}
	}
}
