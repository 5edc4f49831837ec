// Package persistflowtest is the persistflow golden fixture: each
// // want comment names a substring of the diagnostic the analyzer
// must report on that line. Every case needs per-location state: a
// coarse model (one flush clears every pending store, one fence clears
// everything) sees none of them. TestCoarseAnalyzersMissPersistFlowCases
// asserts specpair stays silent on this entire package.
package persistflowtest

import (
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/persist"
	"pmemspec/internal/sim"
)

// scratch returns an opaque PM address: the location it roots is
// neither a parameter nor a receiver, so obligations on it must be
// reported locally instead of exported as summary facts.
func scratch() mem.Addr { return 4096 }

// storeBoth dirties a and b but flushes only a. The trailing barrier
// makes the coarse model believe everything is clean; per-location, b
// leaves the function Dirty (summary fact pf:dirty on b's parameter).
func storeBoth(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	t.StoreU64(a, 1)
	t.StoreU64(b, 2)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
}

// passThrough adds a second call layer; the obligation on b propagates
// through its summary unchanged.
func passThrough(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	storeBoth(t, m, a, b)
}

// topLevel is the acceptance case: a store in a helper two call layers
// down, never flushed, surfacing at the outermost caller whose region
// is locally rooted.
func topLevel(t *machine.Thread, m persist.Model, a mem.Addr) {
	b := scratch()
	passThrough(t, m, a, b) // want "still dirty at return"
}

// commitLeak releases a lock while a callee-dirtied location is still
// in the cache domain: the commit-point variant of the same blind
// spot.
func commitLeak(t *machine.Thread, m persist.Model, lk *sim.Mutex, a, b mem.Addr) {
	t.Lock(lk)
	storeBoth(t, m, a, b) // want "still dirty at the lock release"
	t.Unlock(lk)
}

// wrongEpochSplit re-dirties a after its flush; the later flush of b
// does not cover a, so the barrier fences a stale value. The coarse
// flush-clears-everything model is fooled; the per-location engine is
// not.
func wrongEpochSplit(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	t.StoreU64(a, 1)
	t.StoreU64(b, 2)
	m.Flush(t, a, 8)
	t.StoreU64(a, 3) // want "wrong epoch"
	m.Flush(t, b, 8)
	m.OrderBarrier(t)
}

// flushMissesOne: the only flush covers a, the fence orders nothing
// for b — coarse-clean, per-location Dirty at return.
func flushMissesOne(t *machine.Thread, m persist.Model, a mem.Addr) {
	b := scratch()
	t.StoreU64(a, 1)
	t.StoreU64(b, 2) // want "still dirty at return"
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
}

// fenceSkipsLate: b's flush lands after the only barrier, so b is
// flushed but never ordered; the coarse model has nothing pending at
// return.
func fenceSkipsLate(t *machine.Thread, m persist.Model, a mem.Addr) {
	b := scratch()
	t.StoreU64(a, 1)
	t.StoreU64(b, 2) // want "flushed but never ordered"
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
	m.Flush(t, b, 8)
}

// rawLockStore holds only a raw sim mutex: the spec-tracked store has
// no spec ID to ride on, violating the §6 compiler rule. The store is
// properly flushed and fenced, so only the §6 check fires.
func rawLockStore(t *machine.Thread, st *sim.Thread, m persist.Model, lk *sim.Mutex, a mem.Addr) {
	lk.Lock(st)
	t.StoreU64(a, 1) // want "no open SpecAssign span"
	m.Flush(t, a, 8)
	m.DurableBarrier(t)
	lk.Unlock(st)
}

// rawLockSpecAssigned is the §6 rule done by hand: silent.
func rawLockSpecAssigned(t *machine.Thread, st *sim.Thread, m persist.Model, lk *sim.Mutex, a mem.Addr) {
	lk.Lock(st)
	t.SpecAssign()
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.DurableBarrier(t)
	t.SpecRevoke()
	lk.Unlock(st)
}

// privateLockStore: thread-private stores carry no speculation tag by
// design (the runtime's own logs), so §6 does not apply.
func privateLockStore(t *machine.Thread, st *sim.Thread, m persist.Model, lk *sim.Mutex, a mem.Addr) {
	lk.Lock(st)
	t.StorePrivateU64(a, 1)
	m.Flush(t, a, 8)
	m.DurableBarrier(t)
	lk.Unlock(st)
}

// machineLockStore: Thread.Lock is a lock+SpecAssign unit, so the
// store is covered; silent.
func machineLockStore(t *machine.Thread, m persist.Model, lk *sim.Mutex, a mem.Addr) {
	t.Lock(lk)
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.DurableBarrier(t)
	t.Unlock(lk)
}

// loopClean: the back-edge join keeps a at its fenced state across
// iterations; each iteration completes the protocol. Silent — a guard
// against loop false positives.
func loopClean(t *machine.Thread, m persist.Model, a mem.Addr, n int) {
	for i := 0; i < n; i++ {
		t.StoreU64(a, uint64(i))
		m.Flush(t, a, 8)
		m.OrderBarrier(t)
	}
}

// loopFlushAfter: offset expressions canonicalize per lexical path, so
// the flush of the base region covers the loop's stores. Silent.
func loopFlushAfter(t *machine.Thread, m persist.Model, a mem.Addr, n int) {
	for i := 0; i < n; i++ {
		t.StoreU64(a+mem.Addr(i*8), 1)
	}
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
}

// declaredBeforeHelpers mirrors topLevel with the call chain declared
// caller-first: package summarization iterates to a fixpoint, so the
// helpers' facts land even though they appear later in the file.
func declaredBeforeHelpers(t *machine.Thread, m persist.Model, a mem.Addr) {
	b := scratch()
	laterPass(t, m, a, b) // want "still dirty at return"
}

func laterPass(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	laterStore(t, m, a, b)
}

func laterStore(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	t.StoreU64(a, 1)
	t.StoreU64(b, 2)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
}
