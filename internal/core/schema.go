package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/expr"
)

// Schema is a validated, flattened decision flow schema. Instances are
// immutable after Build; the engine never mutates a Schema, so one Schema
// can serve any number of concurrent flow instances.
type Schema struct {
	name  string
	attrs []*Attribute

	byName  map[string]AttrID
	sources []AttrID
	targets []AttrID

	// dataIn[a] lists the attributes that are data inputs of a's task;
	// enabIn[a] lists the attributes referenced by a's enabling condition.
	dataIn  [][]AttrID
	enabIn  [][]AttrID
	dataOut [][]AttrID
	enabOut [][]AttrID

	topo []AttrID // a topological order of the dependency graph
	rank []int    // rank[a] = longest-path distance from any source

	// Compiled execution artifacts (see compiled.go): flat condition/value
	// programs over dense AttrID slots, and the enabling-flow dependency
	// bitsets in both directions.
	condProgs  []*expr.Program
	valProgs   []*expr.Program
	enabDepsOf []AttrSet // enabDepsOf[a]: attrs a's condition reads
	enabDepOn  []AttrSet // enabDepOn[a]: attrs whose condition reads a
	synth      AttrSet   // attrs with a synthesis task
	needed0    AttrSet   // needed set of a fresh instance
	support0   []int32   // what holds each attr in needed0 (see InitialSupport)
	unstable0  []int     // non-source data inputs per attr (see InitialUnstable)
	decide0    AttrSet   // conditions a fresh instance can decide (see ResetDecidable)
	cost       []int     // cost[a] = Attr(a).Cost()
	target     AttrSet   // the targets as a bitset

	// fingerprint is a deterministic hash of the schema structure, computed
	// once at finalize; see Fingerprint.
	fingerprint uint64

	// memo holds the execution caches attached by Memo.
	memo sync.Map
}

// Memo returns the value attached to the schema under key, attaching mk()'s
// on first use. Execution layers hang per-schema caches here (the engine's
// step tables), so a cache lives exactly as long as its schema.
func (s *Schema) Memo(key any, mk func() any) any {
	if v, ok := s.memo.Load(key); ok {
		return v
	}
	v, _ := s.memo.LoadOrStore(key, mk())
	return v
}

// Fingerprint returns a deterministic 64-bit hash of the schema structure
// (names, attribute graph, enabling conditions, task kinds and costs —
// everything MarshalJSON serializes; compute bindings are excluded). Two
// processes that built the same schema text agree on the fingerprint, so
// network peers can use it to verify that a schema handshake refers to the
// same attribute-id table without shipping the whole schema.
func (s *Schema) Fingerprint() uint64 { return s.fingerprint }

// Name returns the schema's name.
func (s *Schema) Name() string { return s.name }

// NumAttrs returns the number of attributes (sources included).
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns the attribute with the given ID. It panics on out-of-range
// IDs — IDs only come from this schema, so a bad one is a programming error.
func (s *Schema) Attr(id AttrID) *Attribute { return s.attrs[id] }

// Lookup finds an attribute by name.
func (s *Schema) Lookup(name string) (*Attribute, bool) {
	id, ok := s.byName[name]
	if !ok {
		return nil, false
	}
	return s.attrs[id], true
}

// MustLookup is Lookup that panics when the attribute does not exist.
func (s *Schema) MustLookup(name string) *Attribute {
	a, ok := s.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("core: schema %q has no attribute %q", s.name, name))
	}
	return a
}

// Sources returns the IDs of source attributes in declaration order.
// The returned slice must not be modified.
func (s *Schema) Sources() []AttrID { return s.sources }

// Targets returns the IDs of target attributes in declaration order.
// The returned slice must not be modified.
func (s *Schema) Targets() []AttrID { return s.targets }

// DataInputs returns the IDs of a's data-flow inputs. The slice must not be
// modified.
func (s *Schema) DataInputs(a AttrID) []AttrID { return s.dataIn[a] }

// EnablingInputs returns the IDs of attributes referenced by a's enabling
// condition. The slice must not be modified.
func (s *Schema) EnablingInputs(a AttrID) []AttrID { return s.enabIn[a] }

// DataDependents returns the IDs of attributes that use a as a data input.
func (s *Schema) DataDependents(a AttrID) []AttrID { return s.dataOut[a] }

// EnablingDependents returns the IDs of attributes whose enabling condition
// references a.
func (s *Schema) EnablingDependents(a AttrID) []AttrID { return s.enabOut[a] }

// TopoOrder returns a topological order of all attributes (sources first).
// The slice must not be modified.
func (s *Schema) TopoOrder() []AttrID { return s.topo }

// Rank returns the attribute's topological rank: the length of the longest
// dependency path from any source to it. Sources have rank 0. The
// "topologically-earliest first" scheduling heuristic orders candidates by
// this rank.
func (s *Schema) Rank(a AttrID) int { return s.rank[a] }

// Diameter returns the length of the longest dependency path in the schema,
// the quantity the paper controls via nb_nodes/nb_rows: smaller diameter
// permits more parallelism.
func (s *Schema) Diameter() int {
	max := 0
	for _, r := range s.rank {
		if r > max {
			max = r
		}
	}
	return max
}

// TotalCost returns the sum of all task costs in units of processing — an
// upper bound on Work for any strategy.
func (s *Schema) TotalCost() int {
	total := 0
	for _, a := range s.attrs {
		total += a.Cost()
	}
	return total
}

// AttrNames returns all attribute names in ID order.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// finalize computes the derived graph structures and validates
// well-formedness. Called once by the builder.
func (s *Schema) finalize() error {
	var problems []string
	n := len(s.attrs)
	s.byName = make(map[string]AttrID, n)
	for i, a := range s.attrs {
		a.id = AttrID(i)
		if a.Name == "" {
			problems = append(problems, fmt.Sprintf("attribute #%d has empty name", i))
			continue
		}
		if prev, dup := s.byName[a.Name]; dup {
			problems = append(problems, fmt.Sprintf("duplicate attribute name %q (#%d and #%d)", a.Name, prev, i))
			continue
		}
		s.byName[a.Name] = AttrID(i)
	}

	resolve := func(owner *Attribute, name string) (AttrID, bool) {
		id, ok := s.byName[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("attribute %q references unknown attribute %q", owner.Name, name))
			return NoAttr, false
		}
		return id, true
	}

	s.dataIn = make([][]AttrID, n)
	s.enabIn = make([][]AttrID, n)
	s.dataOut = make([][]AttrID, n)
	s.enabOut = make([][]AttrID, n)

	for i, a := range s.attrs {
		id := AttrID(i)
		if a.isSource {
			s.sources = append(s.sources, id)
			if a.Task != nil {
				problems = append(problems, fmt.Sprintf("source attribute %q must not have a task", a.Name))
			}
			if a.Enabling != nil {
				problems = append(problems, fmt.Sprintf("source attribute %q must not have an enabling condition", a.Name))
			}
			if len(a.Inputs) > 0 {
				problems = append(problems, fmt.Sprintf("source attribute %q must not have inputs", a.Name))
			}
			if a.IsTarget {
				problems = append(problems, fmt.Sprintf("attribute %q cannot be both source and target", a.Name))
			}
			continue
		}
		if a.IsTarget {
			s.targets = append(s.targets, id)
		}
		if a.Task == nil {
			problems = append(problems, fmt.Sprintf("non-source attribute %q has no task", a.Name))
		} else {
			if a.Task.Kind == ForeignTask && a.Task.Cost < 1 {
				problems = append(problems, fmt.Sprintf("foreign task of %q must have cost >= 1 (got %d)", a.Name, a.Task.Cost))
			}
			if a.Task.Kind == SynthesisTask && a.Task.Cost != 0 {
				problems = append(problems, fmt.Sprintf("synthesis task of %q must have cost 0 (got %d)", a.Name, a.Task.Cost))
			}
		}
		if a.Enabling == nil {
			problems = append(problems, fmt.Sprintf("non-source attribute %q has no enabling condition", a.Name))
			continue
		}
		seen := map[AttrID]bool{}
		for _, in := range a.Inputs {
			if inID, ok := resolve(a, in); ok {
				if seen[inID] {
					problems = append(problems, fmt.Sprintf("attribute %q lists input %q twice", a.Name, in))
					continue
				}
				seen[inID] = true
				s.dataIn[id] = append(s.dataIn[id], inID)
				s.dataOut[inID] = append(s.dataOut[inID], id)
			}
		}
		for _, in := range expr.Attrs(a.Enabling) {
			if inID, ok := resolve(a, in); ok {
				s.enabIn[id] = append(s.enabIn[id], inID)
				s.enabOut[inID] = append(s.enabOut[inID], id)
			}
		}
	}

	if len(s.targets) == 0 {
		problems = append(problems, "schema has no target attribute")
	}

	if len(problems) == 0 {
		if cyc := s.computeTopo(); cyc != nil {
			problems = append(problems, fmt.Sprintf("dependency graph is cyclic: %v", cyc))
		}
	}

	if len(problems) > 0 {
		sort.Strings(problems)
		return &ValidationError{Schema: s.name, Problems: problems}
	}
	s.compilePrograms()
	s.compileBackward()
	// FNV-1a over the canonical JSON rendering: MarshalJSON iterates
	// attributes in ID order, so the hash is stable across processes.
	js, err := s.MarshalJSON()
	if err != nil {
		return fmt.Errorf("core: fingerprinting schema %q: %w", s.name, err)
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range js {
		h ^= uint64(b)
		h *= prime64
	}
	s.fingerprint = h
	return nil
}

// computeTopo fills s.topo and s.rank via Kahn's algorithm over the union of
// data and enabling edges; it returns the names of attributes on a cycle if
// the graph is cyclic, nil otherwise.
func (s *Schema) computeTopo() []string {
	n := len(s.attrs)
	indeg := make([]int, n)
	// in-neighbor multiset union; duplicates (an attribute that is both a
	// data and an enabling input) count twice, which is harmless for Kahn.
	for a := 0; a < n; a++ {
		indeg[a] = len(s.dataIn[a]) + len(s.enabIn[a])
	}
	queue := make([]AttrID, 0, n)
	s.rank = make([]int, n)
	for a := 0; a < n; a++ {
		if indeg[a] == 0 {
			queue = append(queue, AttrID(a))
		}
	}
	s.topo = make([]AttrID, 0, n)
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		s.topo = append(s.topo, a)
		succ := func(b AttrID) {
			if r := s.rank[a] + 1; r > s.rank[b] {
				s.rank[b] = r
			}
			indeg[b]--
			if indeg[b] == 0 {
				queue = append(queue, b)
			}
		}
		for _, b := range s.dataOut[a] {
			succ(b)
		}
		for _, b := range s.enabOut[a] {
			succ(b)
		}
	}
	if len(s.topo) != n {
		var cyc []string
		for a := 0; a < n; a++ {
			if indeg[a] > 0 {
				cyc = append(cyc, s.attrs[a].Name)
			}
		}
		s.topo, s.rank = nil, nil
		return cyc
	}
	return nil
}
