package server

// Shadow evaluation: a candidate schema version registered with
// shadow=true runs alongside the live version on a sampled fraction of the
// owning tenant's traffic, and the server reports where the two versions'
// decisions diverge — the dark-launch check before cutting a new version
// over. Shadow instances are background work: they run with
// runtime.Request.Shadow set (invisible to serving metrics and the
// overload sampler), under their own in-flight cap, and a sampled eval
// that cannot run (cap hit, drain) is counted as skipped rather than
// queued — the live path never waits for its shadow.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simdb"
	"repro/internal/trace"
	"repro/internal/value"
)

// maxShadowExamples bounds the diverging source vectors retained per
// tenant for the report.
const maxShadowExamples = 4

// shadowState is one schema's running comparison, attached to the live
// entry it shadows (re-registering the live schema detaches it: the
// experiment's baseline is gone).
type shadowState struct {
	cand        *schemaEntry // the candidate version under test
	sampleEvery uint64
	ctr         atomic.Uint64 // live evals seen, for stride sampling
	inflight    atomic.Int64
	skipped     atomic.Uint64

	mu      sync.Mutex
	tenants map[string]*shadowTenantState
}

type shadowTenantState struct {
	sampled  uint64
	diverged uint64
	errs     uint64
	examples []api.ShadowExample
}

func newShadowState(cand *schemaEntry, sampleEvery int) *shadowState {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &shadowState{cand: cand, sampleEvery: uint64(sampleEvery),
		tenants: make(map[string]*shadowTenantState)}
}

// shadowCapture carries one sampled live eval from its admission to the
// candidate's completion: the source vector, the live decision, and where
// to record the comparison.
type shadowCapture struct {
	sh       *shadowState
	live     *schemaEntry // the live version the candidate shadows
	tenant   string
	strategy engine.Strategy
	src      map[string]value.Value
	liveVals map[string]any
	liveErr  string
}

// shadowSample decides on the eval hot path whether this live eval is
// sampled for shadow comparison; the unsampled (and un-shadowed) cost is
// one atomic load. The sources are copied out of the instance's slots and
// overflow here — the pooled buffer recycles when the live eval completes,
// the shadow outlives it.
func (s *Server) shadowSample(entry *schemaEntry, tenantName string, st engine.Strategy, sb *slotBuf) *shadowCapture {
	sh := entry.shadow.Load()
	if sh == nil {
		return nil
	}
	if (sh.ctr.Add(1)-1)%sh.sampleEvery != 0 {
		return nil
	}
	src := make(map[string]value.Value)
	for _, b := range entry.boundSources(sb) {
		src[b.Name] = b.Val
	}
	return &shadowCapture{sh: sh, live: entry, tenant: tenantName, strategy: st, src: src}
}

// boundSources lists an instance's bindings in ascending name order: the
// non-⟂ sources of the live schema from their slots, merged with the
// overflow of names the live schema does not have.
func (e *schemaEntry) boundSources(sb *slotBuf) []api.CaptureSource {
	out := make([]api.CaptureSource, 0, len(e.srcIDs)+len(sb.extra))
	for _, id := range e.srcIDs {
		if !sb.v[id].IsNull() {
			out = append(out, api.CaptureSource{Name: e.schema.Attr(id).Name, Val: sb.v[id]})
		}
	}
	if len(sb.extra) > 0 {
		out = append(out, sb.extra...)
		slices.SortFunc(out, func(a, b api.CaptureSource) int { return strings.Compare(a.Name, b.Name) })
	}
	return out
}

// shadowFinish runs inside the live instance's Done callback: it captures
// the live decision while the pooled snapshot is still valid, then submits
// the candidate as background work. nil capture (unsampled) is a no-op.
func (s *Server) shadowFinish(shc *shadowCapture, entry *schemaEntry, res *engine.Result) {
	if shc == nil {
		return
	}
	shc.liveVals = targetJSON(entry, res)
	if res.Err != nil {
		shc.liveErr = res.Err.Error()
	}
	sh := shc.sh
	if s.Draining() {
		sh.skipped.Add(1)
		return
	}
	if sh.inflight.Add(1) > int64(s.cfg.MaxShadowInFlight) {
		sh.inflight.Add(-1)
		sh.skipped.Add(1)
		return
	}
	cand := sh.cand
	err := s.svc.Submit(runtime.Request{
		Schema:   cand.schema,
		Sources:  shc.src,
		Strategy: shc.strategy,
		Shadow:   true,
		Done: func(res *engine.Result) {
			shadowVals := targetJSON(cand, res)
			shadowErr := ""
			if res.Err != nil {
				shadowErr = res.Err.Error()
			}
			sh.recordOutcome(shc, shadowVals, shadowErr)
			sh.inflight.Add(-1)
		},
	})
	if err != nil {
		// Service closed under us (drain race): coverage lost, counted.
		sh.inflight.Add(-1)
		sh.skipped.Add(1)
	}
}

// targetJSON renders an instance's target values in the JSON-any form of
// EvalResult.Values — a deep copy, so nothing aliases the pooled snapshot.
func targetJSON(entry *schemaEntry, res *engine.Result) map[string]any {
	out := make(map[string]any, len(entry.targetIDs))
	for i, id := range entry.targetIDs {
		out[entry.targetNames[i]] = api.ToJSON(res.Snapshot.Val(id))
	}
	return out
}

// recordOutcome folds one completed comparison into the per-tenant
// counters. Divergence means the versions decided differently: any target
// value differing (targets are compared by name over both versions'
// target sets; a target only one version has diverges unless it is ⟂), or
// exactly one side erroring.
func (sh *shadowState) recordOutcome(shc *shadowCapture, shadowVals map[string]any, shadowErr string) {
	liveOK, shadowOK := shc.liveErr == "", shadowErr == ""
	diverged := liveOK != shadowOK
	if liveOK && shadowOK {
		diverged = !targetsEqual(shc.liveVals, shadowVals)
	}
	sh.mu.Lock()
	ts := sh.tenants[shc.tenant]
	if ts == nil {
		ts = &shadowTenantState{}
		sh.tenants[shc.tenant] = ts
	}
	ts.sampled++
	if diverged {
		ts.diverged++
		if !shadowOK && liveOK {
			ts.errs++
		}
		if len(ts.examples) < maxShadowExamples {
			ts.examples = append(ts.examples, api.ShadowExample{
				Sources:     api.EncodeSources(shc.src),
				Live:        shc.liveVals,
				Shadow:      shadowVals,
				LiveError:   shc.liveErr,
				ShadowError: shadowErr,
				Trace:       sh.divergenceTrace(shc, shadowVals, shadowErr),
			})
		}
	}
	sh.mu.Unlock()
}

// divergenceTrace replays both versions of a diverging eval in virtual
// time — sim clock, unbounded database, the eval's own strategy — and
// renders one combined record: both verdicts up top, then each side's
// internal/trace timeline, so a retained example explains *how* the two
// versions reached different decisions, not just that they did. Targets
// are deterministic in the sources, so the replayed decisions match the
// recorded ones; only the wall-clock interleaving is idealized. Replay is
// bounded by maxShadowExamples per tenant, off every hot path.
func (sh *shadowState) divergenceTrace(shc *shadowCapture, shadowVals map[string]any, shadowErr string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "live v%d verdict: %s\n", shc.live.version, verdictJSON(shc.liveVals, shc.liveErr))
	fmt.Fprintf(&b, "shadow v%d verdict: %s\n", sh.cand.version, verdictJSON(shadowVals, shadowErr))
	fmt.Fprintf(&b, "--- live v%d replay ---\n%s", shc.live.version, replayTrace(shc.live.schema, shc.strategy, shc.src))
	fmt.Fprintf(&b, "--- shadow v%d replay ---\n%s", sh.cand.version, replayTrace(sh.cand.schema, shc.strategy, shc.src))
	return b.String()
}

// verdictJSON renders one side's decision: its target values, or its
// instance error.
func verdictJSON(vals map[string]any, errMsg string) string {
	if errMsg != "" {
		return "error: " + errMsg
	}
	j, err := json.Marshal(vals)
	if err != nil {
		return fmt.Sprintf("%v", vals)
	}
	return string(j)
}

// replayTrace runs one instance of s under the simulated clock with a
// trace recorder attached and renders its timeline.
func replayTrace(s *core.Schema, st engine.Strategy, src map[string]value.Value) string {
	rec := trace.NewRecorder(s)
	sm := sim.New()
	e := &engine.Engine{Sim: sm, DB: &simdb.Unbounded{S: sm}, Strategy: st, Hooks: rec.Hooks()}
	res := e.Start(s, src, nil)
	sm.Run()
	if res.Err != nil {
		return fmt.Sprintf("replay error: %v\n%s", res.Err, rec.Trace().Render())
	}
	return rec.Trace().Render()
}

// targetsEqual compares two JSON-form target maps over the union of their
// keys; a key only one side has counts as equal only when its value is
// null (a missing target is ⟂).
func targetsEqual(a, b map[string]any) bool {
	for k, va := range a {
		if !reflect.DeepEqual(va, b[k]) {
			return false
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok && vb != nil {
			return false
		}
	}
	return true
}

// report renders the running comparison for GET /v1/schemas/{name}/shadow.
func (sh *shadowState) report(name string, liveVersion uint64) api.ShadowReport {
	rep := api.ShadowReport{
		Schema:        name,
		LiveVersion:   liveVersion,
		ShadowVersion: sh.cand.version,
		SampleEvery:   int(sh.sampleEvery),
		Skipped:       sh.skipped.Load(),
		Tenants:       make(map[string]api.ShadowTenant),
	}
	sh.mu.Lock()
	for tenant, ts := range sh.tenants {
		rep.Tenants[tenant] = api.ShadowTenant{
			Sampled:  ts.sampled,
			Diverged: ts.diverged,
			Errors:   ts.errs,
			Examples: append([]api.ShadowExample(nil), ts.examples...),
		}
	}
	sh.mu.Unlock()
	return rep
}
