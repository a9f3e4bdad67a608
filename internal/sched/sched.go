// Package sched implements the task scheduler of the decision flow
// execution architecture (paper §3–§4): given the candidate attribute pool
// maintained by the prequalifier, it selects which tasks to launch against
// the external database.
//
// Two selection heuristics from the paper are provided:
//
//   - topologically-earliest first ('E'): prefer candidates closest to the
//     sources in the dependency graph. Early nodes maximize forward
//     propagation (their results decide many downstream conditions) and,
//     under speculation, are the least likely to be wasted;
//
//   - cheapest first ('C'): prefer candidates with the shortest estimated
//     execution duration, so results return (and propagate) sooner and
//     wasted speculative work is cheaper.
//
// The degree of parallelism is governed by the paper's %Permitted knob:
// the percentage of the candidate pool that may execute concurrently, with
// the constraint that at least one task is always allowed (0 % therefore
// means strictly serial execution).
package sched

import (
	"cmp"
	"slices"

	"repro/internal/core"
)

// Heuristic selects the candidate ordering rule.
type Heuristic uint8

const (
	// TopoEarliest is the paper's "topologically-earliest first" ('E').
	TopoEarliest Heuristic = iota
	// Cheapest is the paper's "cheapest first" ('C').
	Cheapest
)

// String returns the paper's one-letter code for the heuristic.
func (h Heuristic) String() string {
	if h == Cheapest {
		return "C"
	}
	return "E"
}

// Scheduler selects tasks to launch. The zero value is TopoEarliest with
// 100 % parallelism.
type Scheduler struct {
	// Heuristic orders the candidate pool.
	Heuristic Heuristic
	// Permitted is the %Permitted parallel-processing option in [0,100]:
	// the percentage of candidates allowed to execute concurrently, with a
	// floor of one task.
	Permitted int
}

// New returns a scheduler with the given heuristic and %Permitted value.
func New(h Heuristic, permitted int) *Scheduler {
	return &Scheduler{Heuristic: h, Permitted: permitted}
}

// Capacity returns how many tasks may run concurrently given the current
// pool size and the number already in flight:
// max(1, round(%Permitted × (pool + inFlight) / 100)). The paper's 0 %
// setting therefore allows exactly one in-flight task (no parallelism);
// 100 % allows the entire pool.
func (s *Scheduler) Capacity(poolSize, inFlight int) int {
	total := poolSize + inFlight
	cap := (s.Permitted*total + 50) / 100 // round half up
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Select returns the candidates to launch now, in launch order: the top of
// the heuristic-ordered pool up to remaining capacity. cands must be the
// current candidate pool (the scheduler does not mutate it); inFlight is
// the number of this instance's tasks currently executing.
func (s *Scheduler) Select(schema *core.Schema, cands []core.AttrID, inFlight int) []core.AttrID {
	return s.SelectInto(schema, cands, inFlight, nil)
}

// SelectInto is Select with a caller-provided scratch buffer: the ordered
// copy of the pool is built in scratch (grown as needed), so steady-state
// callers allocate nothing. The returned slice aliases scratch and is only
// valid until the next call with the same buffer.
func (s *Scheduler) SelectInto(schema *core.Schema, cands []core.AttrID, inFlight int, scratch []core.AttrID) []core.AttrID {
	if len(cands) == 0 {
		return nil
	}
	slots := s.Capacity(len(cands), inFlight) - inFlight
	if slots <= 0 {
		return nil
	}
	ordered := append(scratch[:0], cands...)
	s.order(schema, ordered)
	if slots > len(ordered) {
		slots = len(ordered)
	}
	return ordered[:slots]
}

// order sorts candidates by the configured heuristic. Ties break on the
// other criterion and finally on ID, keeping selection fully deterministic.
func (s *Scheduler) order(schema *core.Schema, ids []core.AttrID) {
	rank := func(id core.AttrID) int { return schema.Rank(id) }
	cost := func(id core.AttrID) int { return schema.Cost(id) }
	switch s.Heuristic {
	case Cheapest:
		slices.SortFunc(ids, func(a, b core.AttrID) int {
			if c := cmp.Compare(cost(a), cost(b)); c != 0 {
				return c
			}
			if c := cmp.Compare(rank(a), rank(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	default: // TopoEarliest
		slices.SortFunc(ids, func(a, b core.AttrID) int {
			if c := cmp.Compare(rank(a), rank(b)); c != 0 {
				return c
			}
			if c := cmp.Compare(cost(a), cost(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
}
