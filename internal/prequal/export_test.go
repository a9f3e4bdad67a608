package prequal

import (
	"slices"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/snapshot"
)

// The hooks below let oracle_test.go run the reference initial pass step by
// step and compare the prequalifier's internal state after Reset.

// Internals is a deep copy of the prequalifier's propagation state.
type Internals struct {
	Cond       []expr.Truth
	UnstableIn []int
	Needed     core.AttrSet
	HoldsCond  core.AttrSet
	Support    []int32
	Pool       core.AttrSet
}

// Internals copies out the propagation state.
func (p *Prequalifier) Internals() Internals {
	return Internals{
		Cond:       slices.Clone(p.cond),
		UnstableIn: slices.Clone(p.unstableIn),
		Needed:     slices.Clone(p.needed),
		HoldsCond:  slices.Clone(p.holdsCond),
		Support:    slices.Clone(p.support),
		Pool:       slices.Clone(p.pool),
	}
}

// Bind is Reset without the initial pass.
func (p *Prequalifier) Bind(sn *snapshot.Snapshot, opts Options) { p.bind(sn, opts) }

func (p *Prequalifier) SetCond(id core.AttrID, t expr.Truth) { p.cond[id] = t }
func (p *Prequalifier) SetUnstableIn(id core.AttrID, n int)  { p.unstableIn[id] = n }
func (p *Prequalifier) MarkStable(id core.AttrID)            { p.stable.Add(id) }
func (p *Prequalifier) Unneed(id core.AttrID)                { p.unneed(id) }
func (p *Prequalifier) TryDecide(id core.AttrID)             { p.tryDecide(id) }
func (p *Prequalifier) TryReady(id core.AttrID)              { p.tryReady(id) }
func (p *Prequalifier) Drain()                               { p.drain() }
