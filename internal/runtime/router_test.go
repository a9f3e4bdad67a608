package runtime

import (
	"sync"
	"testing"
	"time"
)

// pickNow is the wall time (ns) the selector tests pick at; breakers are
// staged relative to it.
const pickNow = int64(1_000_000_000_000)

// testShard builds a shard of n idle replicas whose breakers open after 3
// failures and cool down for a second.
func testShard(n int) *cshard {
	sh := &cshard{replicas: make([]*replica, n)}
	for i := range sh.replicas {
		sh.replicas[i] = newReplica(Instant{}, 3, time.Second)
	}
	return sh
}

// breaker states a replica can be staged in, relative to pickNow.
const (
	stageClosed    = iota
	stageOpen      // open, cooldown still running
	stageProbeable // open, cooldown elapsed: a probe may be claimed
	stageHalfOpen  // the probe is out
)

func stage(r *replica, st int) {
	switch st {
	case stageClosed:
		r.brk.state.Store(brClosed)
	case stageOpen:
		r.brk.state.Store(brOpen)
		r.brk.openedAt.Store(pickNow)
	case stageProbeable:
		r.brk.state.Store(brOpen)
		r.brk.openedAt.Store(pickNow - int64(time.Second))
	case stageHalfOpen:
		r.brk.state.Store(brHalfOpen)
	}
}

// TestPickSplitsIdleReplicasEvenly: on two idle replicas every pick is a
// tie, and ties go to the first draw, which is uniform.
func TestPickSplitsIdleReplicasEvenly(t *testing.T) {
	sh := testShard(2)
	var n [2]int
	for range 10000 {
		n[sh.pick(0, pickNow)]++
	}
	for i, c := range n {
		if share := float64(c) / 10000; share < 0.45 || share > 0.55 {
			t.Fatalf("replica %d got %.3f of the picks (%v), want 0.45–0.55", i, share, n)
		}
	}
}

// TestPickNeverTakesMostLoaded: two distinct choices always include a
// replica less loaded than the strictly most loaded one.
func TestPickNeverTakesMostLoaded(t *testing.T) {
	for _, n := range []int{3, 4} {
		for heavy := range n {
			sh := testShard(n)
			for i, r := range sh.replicas {
				r.inFlight.Store(int64(i % 2)) // ties among the others
			}
			sh.replicas[heavy].inFlight.Store(5)
			for range 2000 {
				if i := sh.pick(0, pickNow); i == heavy {
					t.Fatalf("%d replicas: picked the most loaded replica %d", n, heavy)
				}
			}
		}
	}
}

// TestPickSkipsExcludedAndOpen: a replica the call already tried, or whose
// breaker is open, is never returned while another qualifies — even when
// the one that qualifies is the most loaded.
func TestPickSkipsExcludedAndOpen(t *testing.T) {
	for _, st := range []int{stageOpen, stageHalfOpen} {
		sh := testShard(4)
		stage(sh.replicas[1], st)
		sh.replicas[3].inFlight.Store(9)
		exclude := uint64(1<<0 | 1<<2)
		for range 2000 {
			if i := sh.pick(exclude, pickNow); i != 3 {
				t.Fatalf("breaker stage %d: picked replica %d, want 3 (the only one qualifying)", st, i)
			}
		}
	}
}

// TestPickClaimsProbeOnce: two picks racing on a replica whose cooldown has
// elapsed claim its half-open probe once; the loser goes elsewhere.
func TestPickClaimsProbeOnce(t *testing.T) {
	for trial := range 200 {
		sh := testShard(2)
		stage(sh.replicas[0], stageProbeable)
		sh.replicas[1].inFlight.Store(4) // the probe replica ranks first
		var (
			start sync.WaitGroup
			done  sync.WaitGroup
			got   [2]int
		)
		start.Add(1)
		for g := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[g] = sh.pick(0, pickNow)
			}()
		}
		start.Done()
		done.Wait()
		probes := 0
		for _, i := range got {
			if i == 0 {
				probes++
			}
		}
		if probes != 1 {
			t.Fatalf("trial %d: picks %v claimed the probe %d times, want 1", trial, got, probes)
		}
		if s := sh.replicas[0].brk.state.Load(); s != brHalfOpen {
			t.Fatalf("trial %d: probe replica in state %d, want half-open", trial, s)
		}
	}
}

// FuzzPick stages random shards — 1–8 replicas, in-flight gauges, a tried
// mask, each breaker closed, open, probeable or half-open — and checks one
// pick: the index is in range, it qualifies whenever some replica does,
// and with two or more qualifying it is never the unique most loaded of
// them. The first byte picks the replica count, the next two the tried
// mask and the draw counter, then two bytes per replica its gauge and its
// breaker stage.
func FuzzPick(f *testing.F) {
	f.Add([]byte{1, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{2, 0x01, 7, 1, 0, 5, 2, 0, 3})
	f.Add([]byte{7, 0x15, 1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 0, 5, 1, 6, 2, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0]%8)
		if len(data) < 3+2*n {
			return
		}
		exclude := uint64(data[1]) & (1<<uint(n) - 1)
		sh := testShard(n)
		sh.draws.Store(uint64(data[2]))
		var qualifying uint64
		for i, r := range sh.replicas {
			r.inFlight.Store(int64(data[3+2*i] % 8))
			stage(r, int(data[4+2*i]%4))
			if exclude&(1<<uint(i)) == 0 && r.brk.admissible(pickNow) {
				qualifying |= 1 << uint(i)
			}
		}
		// The unique most-loaded qualifying replica, if there is one.
		heavy, top, ties := -1, int64(-1), 0
		for i, r := range sh.replicas {
			if qualifying&(1<<uint(i)) == 0 {
				continue
			}
			switch l := r.inFlight.Load(); {
			case l > top:
				heavy, top, ties = i, l, 1
			case l == top:
				ties++
			}
		}

		i := sh.pick(exclude, pickNow)
		if i < 0 || i >= n {
			t.Fatalf("picked %d of %d replicas", i, n)
		}
		if qualifying != 0 && qualifying&(1<<uint(i)) == 0 {
			t.Fatalf("picked replica %d outside the qualifying set %b", i, qualifying)
		}
		if heavy >= 0 && ties == 1 && qualifying&(qualifying-1) != 0 && i == heavy {
			t.Fatalf("picked the unique most-loaded replica %d of qualifying set %b", i, qualifying)
		}
	})
}
