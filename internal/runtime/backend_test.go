package runtime

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/simdb"
)

// Backend conformance: every shipped Backend honors the Exec contract. each
// fires exactly once per member index and never outside the range; a
// combined round trip of a backend that draws one fault per round trip
// gives every member the same outcome; and Exec keeps nothing of qs once it
// returns — scribbling over the slice right after the call changes neither
// the outcomes nor where a cluster placed the members.

type conformBackend struct {
	name   string
	faults bool // injects failures, so the outcome comparison is not vacuous
	shared bool // a round trip draws one fault, shared by every member
	new    func() Backend
}

func conformanceBackends() []conformBackend {
	latency := func(seed int64) Backend {
		return &Latency{Base: 200 * time.Microsecond, PerUnit: time.Microsecond, FailRate: 0.3, Seed: seed}
	}
	faulty := simdb.DefaultParams()
	faulty.FailProb = 0.3
	return []conformBackend{
		{name: "Instant", new: func() Backend { return Instant{} }},
		{name: "Latency", faults: true, shared: true, new: func() Backend { return latency(1) }},
		{name: "PacedSim", faults: true, shared: true, new: func() Backend { return NewPacedSim(faulty, 1, 0.001) }},
		{name: "Cluster", faults: true, new: func() Backend {
			// Retries re-read the members after Exec has returned: the
			// cluster must hold its own copy.
			return NewCluster(ClusterConfig{
				Shards: 2, Replicas: 2, Retries: 1,
				New: func(s, r int) Backend { return latency(int64(2*s + r)) },
			})
		}},
	}
}

func TestBackendConformance(t *testing.T) {
	for _, bc := range conformanceBackends() {
		for _, n := range []int{1, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", bc.name, n), func(t *testing.T) {
				clean, cleanQueries := runConformance(t, bc, n, false)
				scribbled, scribbledQueries := runConformance(t, bc, n, true)
				if !slices.Equal(clean, scribbled) {
					t.Fatalf("overwriting qs after Exec returned changed the outcomes:\nclean     %v\nscribbled %v", clean, scribbled)
				}
				if !slices.Equal(cleanQueries, scribbledQueries) {
					t.Fatalf("overwriting qs after Exec returned changed the per-replica Queries: clean %v, scribbled %v", cleanQueries, scribbledQueries)
				}
				if bc.faults && !slices.Contains(clean, true) {
					t.Fatalf("no member failed in %d round trips: the outcome checks are vacuous", conformRounds)
				}
			})
		}
	}
}

const conformRounds = 40

// runConformance drives conformRounds sequential round trips of n members
// through a fresh backend and returns every member's failed flag, in order,
// plus a cluster's per-replica Queries counts. With scribble, each qs is
// overwritten with garbage the moment Exec returns: a hash that places
// elsewhere and a cost that would take minutes to serve.
func runConformance(t *testing.T, bc conformBackend, n int, scribble bool) (failed []bool, queries []uint64) {
	t.Helper()
	be := bc.new()
	if s, ok := be.(interface{ Stop() }); ok {
		defer s.Stop()
	}
	var mu sync.Mutex
	counts := make([][]int, conformRounds) // guarded by mu: each's calls per member
	for round := range conformRounds {
		qs := make([]Query, n)
		for i := range qs {
			qs[i] = Query{Hash: splitmix64(uint64(round*n + i)), Cost: 1 + i}
		}
		fired := make([]int, n)
		errs := make([]error, n)
		counts[round] = fired
		var left sync.WaitGroup
		left.Add(n)
		be.Exec(qs, func(i int, err error) {
			if i < 0 || i >= n {
				t.Errorf("round %d: each(%d) outside [0, %d)", round, i, n)
				return
			}
			mu.Lock()
			fired[i]++
			errs[i] = err
			first := fired[i] == 1
			mu.Unlock()
			if first {
				left.Done()
			}
		})
		if scribble {
			for i := range qs {
				qs[i] = Query{Hash: ^uint64(i), Cost: 1 << 30}
			}
		}
		landed := make(chan struct{})
		go func() { left.Wait(); close(landed) }()
		select {
		case <-landed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: not every member reported", round)
		}
		mu.Lock()
		for i, err := range errs {
			if bc.shared && err != errs[0] {
				t.Fatalf("round %d: member %d got %v, member 0 got %v: one round trip, one outcome", round, i, err, errs[0])
			}
			failed = append(failed, err != nil)
		}
		mu.Unlock()
	}
	mu.Lock()
	defer mu.Unlock()
	for round, fired := range counts {
		for i, k := range fired {
			if k != 1 {
				t.Fatalf("round %d: each(%d) fired %d times", round, i, k)
			}
		}
	}
	if cl, ok := be.(*Cluster); ok {
		for _, row := range cl.ClusterStats().Replica {
			for _, r := range row {
				queries = append(queries, r.Queries)
			}
		}
	}
	return failed, queries
}
