// Package flows holds the built-in decision flows shared by the serving
// CLIs: cmd/dfsd serves them over both wires and cmd/dfserve names them
// on the daemon. Keeping them in one package guarantees both ends of a
// remote benchmark execute the same schema.
package flows

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/value"
)

// Quickstart is the five-attribute shipping-upgrade flow of the package
// quick start, with its default source bindings.
func Quickstart() (*core.Schema, map[string]value.Value) {
	schema := core.NewBuilder("quickstart").
		Source("order_total").
		Source("customer_id").
		Foreign("tier", expr.TrueExpr, []string{"customer_id"}, 2,
			func(in core.Inputs) value.Value {
				if id, ok := in.Get("customer_id").AsInt(); ok && id%2 == 1 {
					return value.Str("gold")
				}
				return value.Str("standard")
			}).
		Foreign("warehouse_load", expr.MustParse("order_total > 50"), nil, 3,
			core.ConstCompute(value.Int(40))).
		SynthesisExpr("score", expr.TrueExpr,
			expr.MustParse(`order_total / 10 + coalesce(warehouse_load, 100) / -2`)).
		Foreign("upgrade", expr.MustParse(`score > -10 and tier == "gold"`), []string{"tier", "score"}, 1,
			core.ConstCompute(value.Str("free 2-day shipping"))).
		Target("upgrade").
		MustBuild()
	return schema, map[string]value.Value{
		"order_total": value.Int(120),
		"customer_id": value.Int(7),
	}
}

// Pattern is the Table 1 default 64-node generated pattern (named
// "pattern" for lookup), with its scripted source bindings.
func Pattern() (*core.Schema, map[string]value.Value) {
	g := gen.Generate(gen.Default())
	return g.Schema, g.SourceValues()
}

// ByName resolves a built-in flow: "quickstart" or "pattern".
func ByName(name string) (*core.Schema, map[string]value.Value, error) {
	switch name {
	case "quickstart":
		s, src := Quickstart()
		return s, src, nil
	case "pattern":
		s, src := Pattern()
		return s, src, nil
	default:
		return nil, nil, fmt.Errorf("flows: unknown schema %q (want quickstart or pattern)", name)
	}
}

// Spread precomputes n variants of the base source bindings, each shifting
// every integer source by the variant index, and returns the per-instance
// selector (instance i runs variant i mod n). Distinct variants produce
// distinct query identities, which moves the query layer out of the
// degenerate all-instances-identical regime. It fails when no integer
// source exists to vary.
func Spread(base map[string]value.Value, n int) (func(i int) map[string]value.Value, error) {
	varied := false
	variants := make([]map[string]value.Value, n)
	for v := range variants {
		m := make(map[string]value.Value, len(base))
		for name, val := range base {
			if iv, ok := val.AsInt(); ok {
				m[name] = value.Int(iv + int64(v))
				varied = true
			} else {
				m[name] = val
			}
		}
		variants[v] = m
	}
	if !varied {
		return nil, fmt.Errorf("flows: spread %d has no effect: no integer source to vary, all instances would be identical", n)
	}
	return func(i int) map[string]value.Value { return variants[i%n] }, nil
}

// BindDefaultComputes installs a deterministic compute on every foreign
// task of the schema that lacks one: an FNV-1a hash of the attribute name
// and its stable input values, as an Int. Registered (wire-parsed) schemas
// get their foreign results this way — compute functions cannot travel
// over HTTP — so the same inputs always produce the same value, keeping
// the query layer's dedup/cache sound and runs reproducible across
// servers.
func BindDefaultComputes(s *core.Schema) {
	for id := 0; id < s.NumAttrs(); id++ {
		a := s.Attr(core.AttrID(id))
		if a.Task == nil || a.Task.Kind != core.ForeignTask || a.Task.Compute != nil {
			continue
		}
		name, inputs := a.Name, a.Inputs
		s.BindCompute(name, func(in core.Inputs) value.Value {
			h := fnv.New64a()
			h.Write([]byte(name))
			for _, dep := range inputs {
				h.Write([]byte{0x1f})
				h.Write([]byte(in.Get(dep).String()))
			}
			// Keep the value small and positive so wire-registered schemas
			// can write readable range predicates over it.
			return value.Int(int64(h.Sum64() % 1000))
		})
	}
}
