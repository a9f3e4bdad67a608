package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flows"
	"repro/internal/guideline"
	"repro/internal/randschema"
	"repro/internal/value"
)

// serveLike drives one instance on c the way runtime.Service does over an
// Instant backend: every launch completes inline, behind the message being
// handled, so completions arrive in launch order, each followed by an
// Advance.
func serveLike(t *testing.T, c *engine.Core, s *core.Schema, sources map[string]value.Value, st engine.Strategy) (hits, misses int) {
	c.Reset(s, sources, st, nil, nil)
	var queue []core.AttrID
	for {
		launches, status := c.Advance()
		if status != engine.StatusRunning {
			break
		}
		for _, id := range launches {
			c.Book(id)
			queue = append(queue, id)
		}
		if len(queue) == 0 {
			t.Fatalf("%s %s: running with nothing in flight", s.Name(), st)
		}
		c.Complete(queue[0], false)
		queue = queue[1:]
	}
	if err := c.Result().Err; err != nil {
		t.Fatal(err)
	}
	return c.Result().StepMemoHits, c.Result().StepMemoMisses
}

// TestStepMemoHitRate is the step memo's measure-first probe: how many
// control states and transitions real flows reach, the share of steps
// replayed, and what the tables retain. The pattern must replay ≥ 99 % of
// its steps once its first 16 instances have run.
func TestStepMemoHitRate(t *testing.T) {
	type table struct {
		s  *core.Schema
		st engine.Strategy
	}
	var c engine.Core
	report := func(name string, hits, misses int, tables []table) {
		states, transitions, variants, bytes := 0, 0, 0, int64(0)
		for _, tb := range tables {
			n, e, v, b, _ := engine.TableStats(tb.s, tb.st)
			states, transitions, variants, bytes = states+n, transitions+e, variants+v, bytes+b
		}
		t.Logf("%-24s %7d steps, %6.2f%% replayed; %3d tables: %5d states, %5d transitions, %5d variants, %8d bytes (%.0f per state)",
			name, hits+misses, 100*float64(hits)/float64(max(1, hits+misses)), len(tables), states, transitions, variants, bytes, float64(bytes)/float64(max(1, states)))
	}
	pse100 := engine.MustParseStrategy("PSE100")
	for _, name := range []string{"pattern", "quickstart"} {
		s, base, err := flows.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		vary, err := flows.Spread(base, 1024)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := 0, 0
		for i := 0; i < 1024; i++ {
			h, m := serveLike(t, &c, s, vary(i), pse100)
			if i >= 16 {
				hits, misses = hits+h, misses+m
			}
		}
		report(name+" (after 16)", hits, misses, []table{{s, pse100}})
		if name == "pattern" && float64(hits) < 0.99*float64(hits+misses) {
			t.Errorf("pattern replays %d of %d steps after its first 16 instances, want ≥ 99 %%", hits, hits+misses)
		}
	}

	capt, err := capture.Read("../server/testdata/capture_mixed.dfcap")
	if err != nil {
		t.Fatal(err)
	}
	qs, _, _ := flows.ByName("quickstart")
	hits, misses := 0, 0
	var tables []table
	for _, rec := range capt.Records {
		st := engine.MustParseStrategy(rec.Strategy)
		src := make(map[string]value.Value, len(rec.Sources))
		for _, cs := range rec.Sources {
			src[cs.Name] = cs.Val
		}
		if len(tables) == 0 {
			tables = append(tables, table{qs, st})
		}
		h, m := serveLike(t, &c, qs, src, st)
		hits, misses = hits+h, misses+m
	}
	report("capture_mixed", hits, misses, tables)

	hits, misses, tables = 0, 0, nil
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randschema.Generate(rng, randschema.Defaults())
		for _, code := range guideline.DefaultStrategySet {
			st := engine.MustParseStrategy(code)
			tables = append(tables, table{s, st})
			for i := 0; i < 20; i++ {
				h, m := serveLike(t, &c, s, randschema.RandomSources(rng, s), st)
				hits, misses = hits+h, misses+m
			}
		}
	}
	report("randschema x strategies", hits, misses, tables)
}
