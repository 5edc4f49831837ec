package dataflow

import (
	"go/token"
	"sort"
)

// PersistState is the abstract persistence state of one PM location —
// the lattice the abstract interpreter tracks every PM-addressed value
// through. Order is by "distance from durable": joining two paths takes
// the worse (less persisted) state, so Join is max.
//
//	⊥ (untouched) ⊑ Committed ⊑ Ordered ⊑ Flushed ⊑ Dirty ⊑ ⊤ (unknown)
type PersistState uint8

const (
	// PSBottom: the location was never stored on this path.
	PSBottom PersistState = iota
	// PSCommitted: a durability barrier has made the store durable.
	PSCommitted
	// PSOrdered: an ordering barrier has ordered the flushed store;
	// it persists before anything issued after the barrier.
	PSOrdered
	// PSFlushed: the store was pushed toward the persistence domain
	// (model Flush / CLWB) but no barrier has ordered it yet.
	PSFlushed
	// PSDirty: stored, still sitting in the volatile cache domain.
	PSDirty
	// PSTop: unknown — an effect the analysis cannot see may have
	// changed the location.
	PSTop
)

func (s PersistState) String() string {
	switch s {
	case PSBottom:
		return "⊥"
	case PSCommitted:
		return "Committed"
	case PSOrdered:
		return "Ordered"
	case PSFlushed:
		return "Flushed"
	case PSDirty:
		return "Dirty"
	default:
		return "⊤"
	}
}

// JoinPS joins two persist states (max = worse).
func JoinPS(a, b PersistState) PersistState {
	if a > b {
		return a
	}
	return b
}

// LocState is the tracked state of one abstract location.
type LocState struct {
	S PersistState
	// Origin is the position of the store (or summarized call) that
	// made the location Dirty/Flushed — the anchor for diagnostics.
	Origin token.Pos
	// Unstable is set once a call with unknown effects executed after
	// the location reached S: optimizer claims (redundant flush/fence)
	// must not rely on unstable states, while obligation claims
	// (missing flush) still may.
	Unstable bool
	// WrongEpoch marks a Dirty location that was re-stored after its
	// flush but before the ordering barrier: the earlier flush does not
	// cover the new value. A covering re-flush clears it; a fence while
	// it is set is the wrong-epoch hazard.
	WrongEpoch bool
}

// DepthUnknown marks a lock/spec nesting depth that differs between
// joined paths; region checks are disabled under it.
const DepthUnknown = -1

// PMState is the abstract interpreter's per-program-point state: every
// tracked PM location's persist state, barrier-adjacency tracking for
// the redundant-barrier optimizer, and the lock/spec-region nesting
// depths for the §6 coverage check.
type PMState struct {
	Locs map[Loc]LocState

	// FenceValid reports that a fence executed and nothing was stored,
	// flushed, or unknowably called since — a second fence here is a
	// pure stall.
	FenceValid   bool
	FencePos     token.Pos
	FenceDurable bool

	// LockDepth counts held PM-discipline locks; SpecDepth counts open
	// SpecAssign spans. DepthUnknown disables the region check.
	LockDepth, SpecDepth int
}

// NewPMState returns the function-entry state.
func NewPMState() PMState {
	return PMState{Locs: map[Loc]LocState{}}
}

func (s PMState) clone() PMState {
	ns := s
	ns.Locs = make(map[Loc]LocState, len(s.Locs))
	for k, v := range s.Locs {
		ns.Locs[k] = v
	}
	return ns
}

// SortedLocs returns the tracked locations in deterministic order.
func (s PMState) SortedLocs() []Loc {
	out := make([]Loc, 0, len(s.Locs))
	for l := range s.Locs {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Base != out[j].Base {
			return out[i].Base < out[j].Base
		}
		return out[i].Off < out[j].Off
	})
	return out
}

// WithStore records a store to l and returns the prior state of the
// location (PSFlushed prior = a store landing between a flush and its
// barrier, the wrong-epoch hazard).
func (s PMState) WithStore(l Loc, pos token.Pos) (PMState, PersistState) {
	ns := s.clone()
	prev := ns.Locs[l].S
	ns.Locs[l] = LocState{S: PSDirty, Origin: pos, WrongEpoch: prev == PSFlushed}
	ns.FenceValid = false
	return ns, prev
}

// FlushEffect describes what a flush accomplished.
type FlushEffect struct {
	// DirtyCovered is how many Dirty locations the flush moved to
	// Flushed.
	DirtyCovered int
	// Redundant: the flush provably covered at least one tracked
	// location, every location it provably covers was already at Flushed
	// or better, none was unstable, and no same-base location's overlap
	// was indeterminate — deleting the flush provably changes nothing.
	Redundant bool
}

// OffConst parses a canonical offset string as a byte constant. The
// empty offset is 0; otherwise only sums/differences of decimal
// literals (the splitAddr rendering of constant offsets) qualify.
func OffConst(off string) (int64, bool) {
	if off == "" {
		return 0, true
	}
	var total, cur int64
	sign := int64(1)
	digits := false
	for i, c := range off {
		switch {
		case c >= '0' && c <= '9':
			cur = cur*10 + int64(c-'0')
			digits = true
		case c == '+' || c == '-':
			if !digits {
				if i == 0 && c == '-' {
					sign = -1
					continue
				}
				return 0, false
			}
			total += sign * cur
			cur, digits = 0, false
			sign = 1
			if c == '-' {
				sign = -1
			}
		default:
			return 0, false // symbolic offset (0x literals stay symbolic too)
		}
	}
	if !digits {
		return 0, false
	}
	return total + sign*cur, true
}

// WithFlush flushes the byte range [l.Off, l.Off+size) rooted at
// l.Base; size <= 0 means the length is unknown (a non-constant size
// operand, a callee's summary flush, or CLWB's single cache block,
// whose boundaries depend on the base's alignment). Coverage of a
// same-base location is decided per offset:
//
//   - provably inside the range (constant offsets, known size) or at
//     the exact flush address (equal offset strings): covered — the
//     location advances and counts toward a redundancy claim;
//   - provably outside: untouched — it stays Dirty and a later flush
//     of it is NOT redundant (deleting that flush would lose data);
//   - indeterminate (symbolic offset on either side, or distinct
//     offsets under an unknown length): optimistically advanced
//     Dirty→Flushed so the obligation checks don't raise false
//     missing-flush reports, but marked Unstable — the optimizer can
//     never build a redundancy claim on maybe-coverage, and the flush
//     itself makes no claim either.
func (s PMState) WithFlush(l Loc, size int64, pos token.Pos) (PMState, FlushEffect) {
	ns := s.clone()
	var eff FlushEffect
	covered, stableClean := 0, true
	flushOff, flushConst := OffConst(l.Off)
	for k, v := range ns.Locs {
		if k.Base != l.Base {
			continue
		}
		exact := k.Off == l.Off
		if !exact && flushConst && size > 0 {
			if locOff, ok := OffConst(k.Off); ok {
				if locOff < flushOff || locOff >= flushOff+size {
					continue // provably outside the flushed range
				}
				exact = true
			}
		}
		if !exact {
			// Maybe covered: advance for the obligation checks, poison
			// for the optimizer.
			stableClean = false
			if v.S == PSDirty {
				v.S = PSFlushed
				v.WrongEpoch = false
				eff.DirtyCovered++
			}
			v.Unstable = true
			ns.Locs[k] = v
			continue
		}
		covered++
		switch v.S {
		case PSDirty:
			v.S = PSFlushed
			v.WrongEpoch = false
			ns.Locs[k] = v
			eff.DirtyCovered++
			stableClean = false
		case PSTop:
			stableClean = false
		default:
			if v.Unstable {
				stableClean = false
			}
		}
	}
	eff.Redundant = covered > 0 && eff.DirtyCovered == 0 && stableClean
	ns.FenceValid = false
	return ns, eff
}

// WithFence executes an ordering (durable=false) or durability
// (durable=true) barrier. redundant reports that nothing was stored or
// flushed since the previous barrier of at-least-equal strength.
func (s PMState) WithFence(pos token.Pos, durable bool) (PMState, bool) {
	redundant := s.FenceValid && (!durable || s.FenceDurable)
	ns := s.clone()
	for k, v := range ns.Locs {
		switch {
		case durable && (v.S == PSFlushed || v.S == PSOrdered):
			v.S = PSCommitted
			ns.Locs[k] = v
		case !durable && v.S == PSFlushed:
			v.S = PSOrdered
			ns.Locs[k] = v
		}
	}
	ns.FenceValid = true
	ns.FencePos = pos
	ns.FenceDurable = durable || (s.FenceValid && s.FenceDurable)
	return ns, redundant
}

// WithUnknownCall degrades the state across a call whose PM effects the
// analysis cannot see: barrier adjacency is lost and every tracked
// location becomes unstable (optimizer claims about it are off).
func (s PMState) WithUnknownCall() PMState {
	ns := s.clone()
	for k, v := range ns.Locs {
		if !v.Unstable {
			v.Unstable = true
			ns.Locs[k] = v
		}
	}
	ns.FenceValid = false
	return ns
}

// SetLoc force-sets one location's state from a callee's summary, with
// the call as its origin. Barrier adjacency is lost (the callee
// performed real PM work).
func (s PMState) SetLoc(l Loc, st PersistState, origin token.Pos) PMState {
	ns := s.clone()
	ns.Locs[l] = LocState{S: st, Origin: origin}
	ns.FenceValid = false
	return ns
}

// WithDepths returns a copy with adjusted lock/spec depths. Negative
// deltas clamp at zero (an unmatched release is specpair's business,
// not persistflow's).
func (s PMState) WithDepths(dLock, dSpec int) PMState {
	ns := s.clone()
	if ns.LockDepth != DepthUnknown {
		ns.LockDepth += dLock
		if ns.LockDepth < 0 {
			ns.LockDepth = 0
		}
	}
	if ns.SpecDepth != DepthUnknown {
		ns.SpecDepth += dSpec
		if ns.SpecDepth < 0 {
			ns.SpecDepth = 0
		}
	}
	return ns
}

// JoinPM joins two abstract states (per-location max; fence validity
// only survives if both paths agree; depths must match or go unknown).
func JoinPM(a, b PMState) PMState {
	out := PMState{Locs: make(map[Loc]LocState, len(a.Locs)+len(b.Locs))}
	for k, v := range a.Locs {
		out.Locs[k] = v
	}
	for k, v := range b.Locs {
		if prev, ok := out.Locs[k]; ok {
			m := LocState{
				S:          JoinPS(prev.S, v.S),
				Unstable:   prev.Unstable || v.Unstable,
				WrongEpoch: prev.WrongEpoch || v.WrongEpoch,
			}
			// Keep the origin of the worse state for reporting.
			if v.S > prev.S {
				m.Origin = v.Origin
			} else {
				m.Origin = prev.Origin
			}
			out.Locs[k] = m
		} else {
			out.Locs[k] = v
		}
	}
	if a.FenceValid && b.FenceValid && a.FencePos == b.FencePos {
		out.FenceValid = true
		out.FencePos = a.FencePos
		out.FenceDurable = a.FenceDurable && b.FenceDurable
	}
	out.LockDepth = joinDepth(a.LockDepth, b.LockDepth)
	out.SpecDepth = joinDepth(a.SpecDepth, b.SpecDepth)
	return out
}

func joinDepth(a, b int) int {
	if a == b {
		return a
	}
	return DepthUnknown
}

// EqualPM reports state equality (the fixpoint test).
func EqualPM(a, b PMState) bool {
	if len(a.Locs) != len(b.Locs) ||
		a.FenceValid != b.FenceValid ||
		(a.FenceValid && (a.FencePos != b.FencePos || a.FenceDurable != b.FenceDurable)) ||
		a.LockDepth != b.LockDepth || a.SpecDepth != b.SpecDepth {
		return false
	}
	for k, v := range a.Locs {
		if w, ok := b.Locs[k]; !ok || w != v {
			return false
		}
	}
	return true
}
