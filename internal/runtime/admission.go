package runtime

import (
	"sync"
	"sync/atomic"
)

// admission is the global bound on database tasks in flight: a counting
// semaphore whose uncontended acquire and release are one atomic add each.
// n counts holders plus waiters, so n <= limit means nobody waits. An
// acquire that pushes n past limit parks until a release hands it a permit;
// a release that leaves n at or above limit knows a waiter exists (there are
// at most limit holders) and hands its permit over instead of returning it.
// Under overload acquire blocks, exactly as the buffered channel it replaces.
type admission struct {
	limit int64
	n     atomic.Int64

	mu      sync.Mutex
	cond    sync.Cond
	permits int // handed over by release, not yet taken by a waiter
}

func newAdmission(limit int) *admission {
	a := &admission{limit: int64(limit)}
	a.cond.L = &a.mu
	return a
}

func (a *admission) acquire() {
	if a.n.Add(1) <= a.limit {
		return
	}
	a.mu.Lock()
	for a.permits == 0 {
		a.cond.Wait()
	}
	a.permits--
	a.mu.Unlock()
}

func (a *admission) release() {
	if a.n.Add(-1) < a.limit {
		return
	}
	a.mu.Lock()
	a.permits++
	a.mu.Unlock()
	a.cond.Signal()
}
