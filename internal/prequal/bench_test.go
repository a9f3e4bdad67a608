package prequal

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// BenchmarkPrequalIncremental drives complete instances of the Table 1
// default 64-node pattern through the prequalifier alone — Reset, then
// repeatedly launch and complete every candidate until the pool drains —
// isolating propagation cost from scheduling and the backend.
func BenchmarkPrequalIncremental(b *testing.B) {
	g := gen.Generate(gen.Default())
	sources := g.SourceValues()
	sn := snapshot.New(g.Schema, sources)
	p := New(sn, Options{Propagate: true, Speculative: true})
	var cands []core.AttrID
	completions := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.Reset(g.Schema, sources)
		p.Reset(sn, Options{Propagate: true, Speculative: true})
		for {
			cands = p.AppendCandidates(cands[:0])
			if len(cands) == 0 {
				break
			}
			for _, id := range cands {
				p.MarkLaunched(id)
				p.NoteResult(id, value.Int(1))
				completions++
			}
		}
	}
	b.ReportMetric(float64(completions)/b.Elapsed().Seconds(), "completions/s")
}
