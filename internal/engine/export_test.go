package engine

import (
	"maps"
	"slices"

	"repro/internal/core"
)

// TableStats reports the step table of (s, st): its interned states, its
// recorded transitions and their variants, the bytes it retains, and
// whether it still records.
func TableStats(s *core.Schema, st Strategy) (states, transitions, variants int, bytes int64, recording bool) {
	t := s.Memo(tableKey{st}, func() any { return &stepTable{st: st} }).(*stepTable)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range append(slices.Collect(maps.Values(t.byKey)), &t.root) {
		if es := m.edges.Load(); es != nil {
			transitions += len(*es)
			for _, e := range *es {
				variants += len(e.vars)
			}
		}
	}
	return len(t.byKey), transitions, variants, t.bytes.Load(), !t.off.Load()
}
