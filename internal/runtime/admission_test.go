package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmissionBoundAndNoLostWakeup hammers the admission semaphore far
// past its limit: 64 goroutines each take and return a permit 10 000 times.
// The number observed inside may never exceed the limit, and every goroutine
// must finish — a lost hand-over would park one forever. Run it under
// -race -cpu 1,2,4 (make race).
func TestAdmissionBoundAndNoLostWakeup(t *testing.T) {
	const goroutines, rounds = 64, 10000
	for _, limit := range []int{1, 2, 16} {
		a := newAdmission(limit)
		var inside, peak atomic.Int64
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					a.acquire()
					now := inside.Add(1)
					for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
					}
					inside.Add(-1)
					a.release()
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("limit %d: goroutines still parked (n=%d, permits=%d): lost wake-up",
				limit, a.n.Load(), a.permits)
		}
		if got := peak.Load(); got > int64(limit) {
			t.Errorf("limit %d: %d holders observed at once", limit, got)
		}
		if n := a.n.Load(); n != 0 || a.permits != 0 {
			t.Errorf("limit %d: after drain n=%d permits=%d, want 0 0", limit, n, a.permits)
		}
	}
}

// TestAdmissionBlocksAtLimit: with every permit held, the next acquire
// waits for a release rather than failing or spinning through.
func TestAdmissionBlocksAtLimit(t *testing.T) {
	a := newAdmission(2)
	a.acquire()
	a.acquire()
	got := make(chan struct{})
	go func() { a.acquire(); close(got) }()
	select {
	case <-got:
		t.Fatal("third acquire passed a limit of 2")
	case <-time.After(20 * time.Millisecond):
	}
	a.release()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("release did not wake the waiter")
	}
}
