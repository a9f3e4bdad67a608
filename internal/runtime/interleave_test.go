package runtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// adversarialBackend is a Backend test double that withholds completions
// and releases them in adversarial orders, pinning down the service's and
// dispatcher's behavior under completion interleavings a realistic backend
// rarely produces: strict LIFO (children complete before parents' earlier
// siblings), seeded random shuffles (deterministic per seed), and
// simultaneous bursts (every pending completion delivered from its own
// goroutine at once). Run under -race via `make race`.
type adversarialBackend struct {
	mode adversaryMode
	rng  *rand.Rand // guarded by mu; seeded, so runs are reproducible

	mu      sync.Mutex
	pending []func()
	stopped bool
	wake    chan struct{}
	done    sync.WaitGroup
}

type adversaryMode int

const (
	lifoOrder adversaryMode = iota
	shuffleOrder
	burstOrder
)

func newAdversarialBackend(mode adversaryMode, seed int64) *adversarialBackend {
	b := &adversarialBackend{
		mode: mode,
		rng:  rand.New(rand.NewSource(seed)),
		wake: make(chan struct{}, 1),
	}
	b.done.Add(1)
	go b.releaser()
	return b
}

// Exec holds the round trip: a whole batch completes as one unit, at an
// adversarial position among other pending completions.
func (b *adversarialBackend) Exec(qs []Query, each func(int, error)) {
	n := len(qs)
	b.hold(func() {
		for i := range n {
			each(i, nil)
		}
	})
}

func (b *adversarialBackend) hold(done func()) {
	b.mu.Lock()
	b.pending = append(b.pending, done)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// releaser periodically drains everything pending, in the adversarial
// order. The delay lets completions from many instances pile up so each
// release is a genuinely mixed batch.
func (b *adversarialBackend) releaser() {
	defer b.done.Done()
	for {
		select {
		case <-b.wake:
		case <-time.After(200 * time.Microsecond):
		}
		b.mu.Lock()
		if b.stopped && len(b.pending) == 0 {
			b.mu.Unlock()
			return
		}
		batch := b.pending
		b.pending = nil
		var order []int
		if b.mode == shuffleOrder {
			order = b.rng.Perm(len(batch))
		}
		b.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		// Letting completions pile up briefly makes each drain a mixed set.
		time.Sleep(100 * time.Microsecond)
		switch b.mode {
		case lifoOrder:
			for i := len(batch) - 1; i >= 0; i-- {
				batch[i]()
			}
		case shuffleOrder:
			for _, i := range order {
				batch[i]()
			}
		case burstOrder:
			var wg sync.WaitGroup
			wg.Add(len(batch))
			for _, f := range batch {
				f := f
				go func() {
					defer wg.Done()
					f()
				}()
			}
			wg.Wait()
		}
	}
}

// Stop shuts the releaser down after the pending queue drains.
func (b *adversarialBackend) Stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	b.done.Wait()
}

// TestAdversarialInterleavings runs a mixed fleet against each adversarial
// completion order, with the query layer off and fully on. Every instance
// must agree with its oracle and fleet accounting must be conserved no
// matter the delivery order.
func TestAdversarialInterleavings(t *testing.T) {
	qs, qsSources := quickstart(t)
	g := gen.Generate(gen.Default())
	type class struct {
		schema  *core.Schema
		sources map[string]value.Value
		oracle  *snapshot.Snapshot
	}
	classes := []class{
		{qs, qsSources, snapshot.Complete(qs, qsSources)},
		{g.Schema, g.SourceValues(), snapshot.Complete(g.Schema, g.SourceValues())},
	}
	strategies := engine.Strategies("PSE100", "PCE0", "NCC0", "PSC40", "NSE60")

	modes := []struct {
		name string
		mode adversaryMode
	}{
		{"lifo", lifoOrder},
		{"shuffle", shuffleOrder},
		{"burst", burstOrder},
	}
	layers := []struct {
		name  string
		query QueryConfig
	}{
		{"direct", QueryConfig{}},
		{"shared", QueryConfig{BatchSize: 8, BatchWindow: 50 * time.Microsecond, Dedup: true, CacheSize: 256}},
	}

	for _, m := range modes {
		for _, l := range layers {
			m, l := m, l
			t.Run(m.name+"/"+l.name, func(t *testing.T) {
				t.Parallel()
				be := newAdversarialBackend(m.mode, 7)
				defer be.Stop()
				svc := New(Config{
					Backend:          be,
					Workers:          4,
					MaxInFlightTasks: 4096,
					Query:            l.query,
				})
				defer svc.Close()

				const n = 400
				var (
					wg       sync.WaitGroup
					bad      atomic.Int64
					sumWork  atomic.Int64
					sumWaste atomic.Int64
				)
				wg.Add(n)
				for i := 0; i < n; i++ {
					cl := classes[i%len(classes)]
					err := svc.Submit(Request{
						Schema:   cl.schema,
						Sources:  cl.sources,
						Strategy: strategies[i%len(strategies)],
						Done: func(r *engine.Result) {
							defer wg.Done()
							if r.Err != nil || !r.Snapshot.Terminal() ||
								snapshot.CheckAgainstOracle(r.Snapshot, cl.oracle) != nil {
								bad.Add(1)
								return
							}
							sumWork.Add(int64(r.Work))
							sumWaste.Add(int64(r.WastedWork))
						},
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				wg.Wait()
				if bad.Load() != 0 {
					t.Fatalf("%d instances failed under %s/%s delivery", bad.Load(), m.name, l.name)
				}
				st := svc.Stats()
				if st.Completed != n || st.Errors != 0 {
					t.Fatalf("stats: %+v", st)
				}
				if st.Work != uint64(sumWork.Load()) || st.WastedWork != uint64(sumWaste.Load()) {
					t.Fatalf("work conservation violated: stats work=%d wasted=%d, sums %d/%d",
						st.Work, st.WastedWork, sumWork.Load(), sumWaste.Load())
				}
				if st.Launched != st.BackendQueries+st.DedupHits+st.CacheHits {
					t.Fatalf("launch conservation violated: %+v", st)
				}
			})
		}
	}
}
