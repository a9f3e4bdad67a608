package engine

import (
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/prequal"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// Status reports what a Core needs next after Advance.
type Status uint8

const (
	// StatusRunning: tasks were selected for launch and/or tasks are in
	// flight; the caller submits any returned launches and waits for
	// completions.
	StatusRunning Status = iota
	// StatusDone: the instance reached a terminal snapshot.
	StatusDone
	// StatusStuck: no candidates, nothing in flight, and the snapshot is
	// not terminal — a malformed schema or an engine bug.
	StatusStuck
)

// Core is the clock- and transport-agnostic execution loop of one decision
// flow instance: the evaluation → prequalifying → scheduling phases of the
// paper's §3, parameterized by a §4 strategy, with Work / WastedWork
// accounting. It is extracted from the virtual-time Engine so the same
// loop can be driven by real wall-clock completions (internal/runtime) or
// by discrete-event simulation (Engine):
//
//   - Advance runs the loop to quiescence and returns the foreign tasks to
//     launch; the caller owns submission (to a simulated or real database).
//   - Book records the launch-time accounting for one selected task.
//   - Complete feeds one finished task back in (the evaluation phase).
//
// Core is not safe for concurrent use; callers serialize per instance.
// All storage is reusable via Reset, so instances can be pooled.
type Core struct {
	schema *core.Schema
	sn     *snapshot.Snapshot
	pq     *prequal.Prequalifier
	sch    sched.Scheduler
	res    *Result
	done   bool

	// inFlight holds the launched-but-uncompleted foreign tasks; their
	// cost is charged to WastedWork if the instance terminates first.
	inFlight []core.AttrID
	// scratch buffers keep Advance allocation-free at steady state.
	cands []core.AttrID
	sel   []core.AttrID
	// mach executes the schema's compiled programs over the snapshot's
	// dense slots; reused across Resets.
	mach expr.Machine

	// The step memo (memo.go). tab is the table of the instance's schema
	// and strategy, cur its current state in it: nil on the plain path,
	// where pq is live; on replay pq goes stale until a miss rebuilds it.
	// from is the state the current step started in, rec whether its plain
	// path is recording into log (through onMove and onCond), unbooked the
	// launches Advance returned that await Book, hits the replays not yet
	// reported to the table. obs is the caller's observer; plain (tests)
	// keeps the core off the table.
	tab            *stepTable
	cur, from      *mstate
	obs, onMove    snapshot.Observer
	onCond         func(core.AttrID, expr.Truth)
	log            []op
	rec, plain     bool
	unbooked, hits int

	// OnSynthesis, if non-nil, observes each local synthesis execution.
	OnSynthesis func(id core.AttrID)
}

// Reset reinitializes the core for a new instance, reusing the snapshot,
// prequalifier and scratch storage of the previous run. res receives the
// accounting; pass nil to allocate a fresh Result. obs replaces any
// observer from the previous run (nil clears it) and is installed before
// the prequalifier's initial propagation pass.
func (c *Core) Reset(s *core.Schema, sources map[string]value.Value, st Strategy, res *Result, obs snapshot.Observer) {
	if c.sn == nil {
		c.sn = new(snapshot.Snapshot)
	}
	c.sn.Reset(s, sources)
	c.reset(s, st, res, obs)
}

// ResetSlots is Reset with the source values supplied as a dense per-AttrID
// slice (see snapshot.ResetSlots) — the zero-copy entry point used by the
// binary wire front end. The slice is read only during this call.
func (c *Core) ResetSlots(s *core.Schema, slots []value.Value, st Strategy, res *Result, obs snapshot.Observer) {
	if c.sn == nil {
		c.sn = new(snapshot.Snapshot)
	}
	c.sn.ResetSlots(s, slots)
	c.reset(s, st, res, obs)
}

func (c *Core) reset(s *core.Schema, st Strategy, res *Result, obs snapshot.Observer) {
	c.enter(s, st)
	c.schema = s
	c.obs = obs
	c.sn.SetObserver(obs)
	c.sch = sched.Scheduler{Heuristic: st.Heuristic, Permitted: st.Permitted}
	if res == nil {
		res = &Result{}
	}
	*res = Result{Snapshot: c.sn, Strategy: st}
	c.res = res
	c.done = false
	c.inFlight = c.inFlight[:0]
	c.OnSynthesis = nil
	if c.replay(inPrologue, core.NoAttr) == nil {
		c.pq.Reset(c.sn, st.prequalOptions())
		c.learn(inPrologue, StatusRunning, nil)
	}
}

// Snapshot returns the instance's snapshot.
func (c *Core) Snapshot() *snapshot.Snapshot { return c.sn }

// Result returns the result the core accounts into.
func (c *Core) Result() *Result { return c.res }

// Done reports whether the instance has terminated (terminal snapshot,
// stuck, or aborted).
func (c *Core) Done() bool { return c.done }

// Advance runs the prequalifying and scheduling phases until quiescence:
// synthesis candidates execute inline (they are local and free); foreign
// candidates are selected within the strategy's parallelism budget and
// returned for the caller to Book and submit. The returned slice is only
// valid until the next Advance and must not be modified: it may be shared
// with every instance whose step replays the same transition. Book each
// before the next Complete or Advance, or the instance leaves its step
// table. On StatusDone and StatusStuck the core seals waste accounting for
// any tasks still in flight.
func (c *Core) Advance() (launches []core.AttrID, status Status) {
	if c.done {
		return nil, StatusDone
	}
	if v := c.replay(inAdvance, core.NoAttr); v != nil {
		if launches, status = v.launches, v.status; status != StatusRunning {
			c.seal()
		}
	} else {
		launches, status = c.advance()
		c.learn(inAdvance, status, launches)
	}
	c.unbooked = len(launches)
	return launches, status
}

// advance is Advance's plain path.
func (c *Core) advance() ([]core.AttrID, Status) {
	for {
		if c.sn.Terminal() {
			c.seal()
			return nil, StatusDone
		}
		// Execute synthesis candidates inline, lowest ID first: they cost no
		// DB work and unblock further propagation at the same instant.
		id, ok := c.pq.FirstCandidateIn(c.schema.SynthesisSet())
		if !ok {
			break
		}
		c.pq.MarkLaunched(id)
		c.res.SynthesisRuns++
		if c.rec {
			c.log = append(c.log, op{id: id, synth: true})
		}
		if c.OnSynthesis != nil {
			c.OnSynthesis(id)
		}
		c.pq.NoteResult(id, c.compute(id))
	}
	// Scheduling phase: what is left in the pool is foreign; select up to
	// the %Permitted cap.
	c.cands = c.pq.AppendCandidates(c.cands[:0])
	selected := c.sch.SelectInto(c.schema, c.cands, len(c.inFlight), c.sel)
	if cap(selected) > cap(c.sel) {
		c.sel = selected[:0]
	}
	if len(selected) == 0 && len(c.inFlight) == 0 {
		// Nothing running, nothing to run, not terminal: stuck.
		c.seal()
		return nil, StatusStuck
	}
	return selected, StatusRunning
}

// Book records the launch of one selected foreign task: it leaves the
// candidate pool, its cost is charged to Work, and it joins the in-flight
// set. It returns the task's cost and whether the launch is speculative
// (enabling condition still undetermined).
func (c *Core) Book(id core.AttrID) (cost int, speculative bool) {
	cost = c.schema.Cost(id)
	speculative = c.sn.State(id) == snapshot.Ready
	c.res.Work += cost
	c.res.Launched++
	c.inFlight = append(c.inFlight, id)
	c.unbooked = max(0, c.unbooked-1)
	if c.cur == nil {
		c.pq.MarkLaunched(id)
	}
	return cost, speculative
}

// AppendQueryArgs renders the sharing identity of id's foreign task at
// launch time — its data-input values, in declared input order — appending
// to dst and returning the extended buffer. Candidates are only launched
// once every data input is stable (READY / READY+ENABLED), so the rendered
// arguments are final: together with the schema and attribute they fully
// determine the task's result for any pure ComputeFunc. ok is false when
// the task's result must not be shared across instances (Task.Volatile, or
// no task); the caller then bypasses deduplication and caching.
func (c *Core) AppendQueryArgs(id core.AttrID, dst []byte) (_ []byte, ok bool) {
	task := c.schema.Attr(id).Task
	if task == nil || task.Volatile {
		return dst, false
	}
	for _, in := range c.schema.DataInputs(id) {
		// Value.String's rendering is type-distinguishing (strings quoted,
		// floats keep a decimal point), and the unit separator keeps adjacent
		// values from running together, so distinct input vectors render
		// distinctly.
		dst = c.sn.Val(in).AppendString(dst)
		dst = append(dst, 0x1f)
	}
	return dst, true
}

// Discarded reports whether a completing task's result would be thrown
// away: its attribute was DISABLED while the task ran.
func (c *Core) Discarded(id core.AttrID) bool {
	return c.sn.State(id) == snapshot.Disabled
}

// Complete is the evaluation phase for one finished foreign task. failed
// injects a database failure: the query "executed" (its cost stays in
// Work) but delivers ⟂. It reports whether the result was discarded.
// Completions arriving after termination are ignored (their work was
// counted at launch and sealed as waste).
func (c *Core) Complete(id core.AttrID, failed bool) (discarded bool) {
	if c.done {
		return false
	}
	c.dropInFlight(id)
	discarded = c.Discarded(id)
	// A failure only changes the value delivered, and the step table
	// branches on whatever a value decides, so both share one transition.
	nullID := core.NoAttr
	switch {
	case discarded:
		// The condition resolved false while the query ran: result discarded.
		c.res.WastedWork += c.schema.Cost(id)
	case failed:
		c.res.Failures++
		nullID = id
	}
	if c.replay(inComplete|uint64(id), nullID) == nil {
		v := value.Null
		if nullID != id && !discarded {
			v = c.compute(id)
		}
		c.pq.NoteResult(id, v)
		c.learn(inComplete|uint64(id), StatusRunning, nil)
	}
	return discarded
}

// Abort terminates the instance early (transport error). Waste accounting
// is sealed; the caller records the error on the Result.
func (c *Core) Abort() { c.seal() }

// seal marks the instance done and charges tasks still in flight to
// WastedWork: their results will be ignored, and their cost is already in
// Work.
func (c *Core) seal() {
	if c.done {
		return
	}
	c.done = true
	for _, id := range c.inFlight {
		c.res.WastedWork += c.schema.Cost(id)
	}
}

// dropInFlight removes id from the in-flight set.
func (c *Core) dropInFlight(id core.AttrID) {
	for i, f := range c.inFlight {
		if f == id {
			c.inFlight[i] = c.inFlight[len(c.inFlight)-1]
			c.inFlight = c.inFlight[:len(c.inFlight)-1]
			return
		}
	}
}

// compute evaluates the task's function over the instance's stable inputs.
// Tasks declared from an expression run the schema's compiled value
// program over the snapshot's dense slots (a nil known mask: tasks read
// every attribute's current value, ⟂ when never set, exactly the Inputs
// contract); opaque ComputeFuncs take the interface path.
func (c *Core) compute(id core.AttrID) value.Value {
	task := c.schema.Attr(id).Task
	if task == nil || task.Compute == nil {
		return value.Null
	}
	if prog := c.schema.ValueProgram(id); prog != nil {
		vals, _ := c.sn.Slots()
		v, _ := prog.EvalValue(&c.mach, vals, nil)
		return v
	}
	return task.Compute(c.sn.Inputs(id))
}
