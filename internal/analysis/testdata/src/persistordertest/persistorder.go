// Package persistordertest is the persistorder fixture: declared
// data-before-commit-marker invariants checked against every design's
// barrier lowering. Every function here is CLEAN under the persist-
// state analyzers (specpair, persistflow) — each store is
// flushed and fenced before return — which is exactly the point: a
// commit marker written before its data is ordered is invisible to
// state tracking and only the order lattice catches it
// (TestStateAnalyzersMissOrderCases pins that separation).
package persistordertest

import (
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/persist"
)

// pregion returns an opaque block-aligned PM region base.
func pregion() mem.Addr { return 8192 }

// sideRegion returns a second, unrelated region.
func sideRegion() mem.Addr { return 32768 }

// commitClean is the correct shape: a durable barrier between data and
// marker orders the pair on every design.
func commitClean(t *machine.Thread, m persist.Model) {
	r := pregion()
	//persistorder:data wal
	t.StoreU64(r, 1)
	m.Flush(t, r, 8)
	m.DurableBarrier(t)
	//persistorder:commit wal
	t.StoreU64(r+64, 2)
	m.Flush(t, r+64, 8)
	m.OrderBarrier(t)
}

// commitFirst is the planted bug: the marker is written before the
// data is even flushed. The function still flushes and fences
// everything before returning, so the state analyzers see nothing —
// but on every design without an in-order persist path (all but DPO)
// a crash can persist the marker alone.
func commitFirst(t *machine.Thread, m persist.Model) {
	r := pregion()
	//persistorder:data wal
	t.StoreU64(r, 1)
	//persistorder:commit wal
	t.StoreU64(r+64, 2) // want "not provably persisted before this commit marker on IntelX86, HOPS, StrandWeaver, PMEM-Spec"
	m.Flush(t, r, 8)
	m.Flush(t, r+64, 8)
	m.OrderBarrier(t)
}

// fenceIsNotEnough orders data with flush+OrderBarrier before the
// marker — sufficient on four designs, but PMEM-Spec has no ordering
// primitive short of SpecBarrier (the paper's asymmetry), so the
// claim fails there and only there.
func fenceIsNotEnough(t *machine.Thread, m persist.Model) {
	r := pregion()
	//persistorder:data seq
	t.StoreU64(r, 1)
	m.Flush(t, r, 8)
	m.OrderBarrier(t)
	//persistorder:commit seq
	t.StoreU64(r+64, 2) // want "commit marker on PMEM-Spec"
	m.Flush(t, r+64, 8)
	m.DurableBarrier(t)
}

// fenceScoped is the same program with the invariant scoped to the
// designs the fence discipline actually covers: clean.
func fenceScoped(t *machine.Thread, m persist.Model) {
	r := pregion()
	//persistorder:data seq2
	t.StoreU64(r, 1)
	m.Flush(t, r, 8)
	m.OrderBarrier(t)
	//persistorder:commit seq2 on=IntelX86,DPO,HOPS,StrandWeaver
	t.StoreU64(r+64, 2)
	m.Flush(t, r+64, 8)
	m.DurableBarrier(t)
}

// specCommit shows the PMEM-Spec-native discipline: SpecBarrier is
// that design's (only) ordering primitive, and the invariant is
// declared for it alone.
func specCommit(t *machine.Thread, m persist.Model) {
	r := pregion()
	//persistorder:data spec
	t.StoreU64(r, 1)
	m.Flush(t, r, 8)
	t.SpecBarrier()
	//persistorder:commit spec on=PMEM-Spec
	t.StoreU64(r+64, 2)
	m.Flush(t, r+64, 8)
	m.DurableBarrier(t)
}

// branchWeak joins a durable path with a fence-only path: the pair
// stays ordered where a fence orders (all but PMEM-Spec), and the
// join correctly keeps the weaker claim for the rest.
func branchWeak(t *machine.Thread, m persist.Model, cond bool) {
	r := pregion()
	//persistorder:data br
	t.StoreU64(r, 1)
	m.Flush(t, r, 8)
	if cond {
		m.DurableBarrier(t)
	} else {
		m.OrderBarrier(t)
	}
	//persistorder:commit br
	t.StoreU64(r+64, 2) // want "commit marker on PMEM-Spec"
	m.Flush(t, r+64, 8)
	m.DurableBarrier(t)
}

// logDrain is a storeless helper ending in a durable barrier on every
// design: it exports po:durable facts and callers may credit it.
func logDrain(t *machine.Thread, m persist.Model) {
	m.DurableBarrier(t)
}

// helperOrders orders data through the helper's exported barrier: the
// interprocedural facts carry the edge, clean on every design.
func helperOrders(t *machine.Thread, m persist.Model) {
	r := pregion()
	//persistorder:data hdr
	t.StoreU64(r, 1)
	m.Flush(t, r, 8)
	logDrain(t, m)
	//persistorder:commit hdr
	t.StoreU64(r+64, 2)
	m.Flush(t, r+64, 8)
	m.OrderBarrier(t)
}

// sideLog persists its own slot correctly — but because it contains a
// store, it exports no order facts: a caller cannot know the store
// does not land on a line it is tracking.
func sideLog(t *machine.Thread, m persist.Model) {
	s := sideRegion()
	t.StoreU64(s, 7)
	m.Flush(t, s, 8)
	m.OrderBarrier(t)
}

// helperStorePoisons: the data store is durably ordered, but the
// store-containing call between barrier and marker poisons every
// claim across it — no design survives.
func helperStorePoisons(t *machine.Thread, m persist.Model) {
	r := pregion()
	//persistorder:data blk
	t.StoreU64(r, 1)
	m.Flush(t, r, 8)
	m.DurableBarrier(t)
	sideLog(t, m)
	//persistorder:commit blk
	t.StoreU64(r+64, 2) // want "commit marker on IntelX86, DPO, HOPS, StrandWeaver, PMEM-Spec"
	m.Flush(t, r+64, 8)
	m.OrderBarrier(t)
}

// lineCoalesced writes data and marker into the same 64-byte block
// with no barrier between: sound only where the persistence path is
// block-granular (IntelX86 writebacks carry the whole coherent line)
// or in-order (DPO) — and the invariant is scoped accordingly.
func lineCoalesced(t *machine.Thread, m persist.Model) {
	r := pregion()
	//persistorder:data rec
	t.StoreU64(r+128, 1)
	//persistorder:commit rec on=IntelX86,DPO
	t.StoreU64(r+136, 2)
	m.Flush(t, r+128, 8)
	m.Flush(t, r+136, 8)
	m.OrderBarrier(t)
}

// lineNotEnoughElsewhere is the same block-sharing pair claimed on
// every design: the per-store persist buffers of HOPS, StrandWeaver
// and PMEM-Spec give no same-line guarantee.
func lineNotEnoughElsewhere(t *machine.Thread, m persist.Model) {
	r := pregion()
	//persistorder:data rec2
	t.StoreU64(r+192, 1)
	//persistorder:commit rec2
	t.StoreU64(r+200, 2) // want "commit marker on HOPS, StrandWeaver, PMEM-Spec"
	m.Flush(t, r+192, 8)
	m.Flush(t, r+200, 8)
	m.OrderBarrier(t)
}

// badDirectives holds the parse-error cases; diagnostics land on the
// directive comment itself.
func badDirectives(t *machine.Thread, m persist.Model) {
	//persistorder:data // want "malformed persistorder directive"
	//persistorder:frobnicate g // want "unknown persistorder directive"
	//persistorder:commit g on=Foo // want "unknown design"
	//persistorder:data g on=IntelX86 // want "only valid on a commit directive"
	//persistorder:data ghost // want "matches no PM store"
	_ = t
	_ = m
}
