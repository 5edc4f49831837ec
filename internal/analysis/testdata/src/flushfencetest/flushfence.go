// Package flushfencetest is the Figure 2 flush/fence obligation
// fixture, checked by persistflow together with redundantbarrier: each
// // want comment names a substring of the diagnostic one of them must
// report on that line. The code only has to type-check. The checked
// functions are unreferenced in the package, so obligations rooted at
// their parameters or receiver have no caller to inherit them and are
// reported at return.
package flushfencetest

import (
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/persist"
	"pmemspec/internal/sim"
)

// flushOne and fenceAll exist so helper-fact propagation is exercised:
// callers below rely on the analyzer summarizing them.
func flushOne(t *machine.Thread, m persist.Model, a mem.Addr) {
	m.Flush(t, a, 8)
}

func fenceAll(t *machine.Thread, m persist.Model) {
	m.OrderBarrier(t)
}

func fenced(t *machine.Thread, m persist.Model, a mem.Addr) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
}

func fencedThroughHelpers(t *machine.Thread, m persist.Model, a mem.Addr) {
	t.StoreU64(a, 1)
	flushOne(t, m, a)
	fenceAll(t, m)
}

func neverFlushed(t *machine.Thread, a mem.Addr) {
	t.StoreU64(a, 1) // want "still dirty at return"
}

func flushedNotOrdered(t *machine.Thread, m persist.Model, a mem.Addr) {
	t.StoreU64(a, 1) // want "flushed but never ordered"
	m.Flush(t, a, 8)
}

// orderedNotFlushed is reported at its store: the barrier orders
// nothing, because no flush covers the location.
func orderedNotFlushed(t *machine.Thread, m persist.Model, a mem.Addr) {
	t.StoreU64(a, 1) // want "still dirty at return"
	m.OrderBarrier(t)
}

// orderedThenFlushed is the silent regression case: the first barrier
// orders nothing, but the flush and the second barrier complete the
// protocol before return.
func orderedThenFlushed(t *machine.Thread, m persist.Model, a mem.Addr) {
	t.StoreU64(a, 1)
	m.OrderBarrier(t)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
}

func doubleFence(t *machine.Thread, m persist.Model, a mem.Addr) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
	m.OrderBarrier(t) // want "redundant fence"
}

func leakAcrossUnlock(t *machine.Thread, m persist.Model, lk *sim.Mutex, a mem.Addr) {
	t.Lock(lk)
	t.StoreU64(a, 1) // want "still dirty at the lock release"
	t.Unlock(lk)
}

// flushedAcrossUnlock orders the store only after the release: the
// next lock holder can observe it before it is ordered.
func flushedAcrossUnlock(t *machine.Thread, m persist.Model, lk *sim.Mutex, a mem.Addr) {
	t.Lock(lk)
	t.StoreU64(a, 1) // want "flushed but not ordered by a barrier before the lock release"
	m.Flush(t, a, 8)
	t.Unlock(lk)
	m.OrderBarrier(t)
}

func fencedBeforeUnlock(t *machine.Thread, m persist.Model, lk *sim.Mutex, a mem.Addr) {
	t.Lock(lk)
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.DurableBarrier(t)
	t.Unlock(lk)
}

// deferredUnlockFenced releases through a defer: the epilogue unlock
// runs after the flush and barrier, so the commit point is clean on
// every return path.
func deferredUnlockFenced(t *machine.Thread, m persist.Model, lk *sim.Mutex, a mem.Addr, bad bool) {
	t.Lock(lk)
	defer t.Unlock(lk)
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.DurableBarrier(t)
	if bad {
		return
	}
}

// deferredUnlockLeak defers the unlock but never fences the store: the
// epilogue release leaks it on every path.
func deferredUnlockLeak(t *machine.Thread, lk *sim.Mutex, a mem.Addr) {
	t.Lock(lk)
	defer t.Unlock(lk)
	t.StoreU64(a, 1) // want "still dirty at the lock release"
}

func allowedStore(t *machine.Thread, a mem.Addr) {
	t.StoreU64(a, 1) //lint:allow persistflow
}

// prefault opts out wholesale (function-level directive): no
// diagnostics and no exported facts, so fencedCaller stays clean even
// though it cannot see a flush.
//
//lint:allow persistflow
func prefault(t *machine.Thread, a mem.Addr) {
	t.StoreU64(a, 1)
}

func fencedCaller(t *machine.Thread, a mem.Addr) {
	prefault(t, a)
}

// Root has the shape of a workload: its exported Setup is reached only
// through an interface from a package the analyzer does not see, so no
// caller inherits the receiver-rooted obligation.
type Root struct{ base mem.Addr }

func (r *Root) Setup(t *machine.Thread) {
	t.StoreU64(r.base, 1) // want "still dirty at return"
}
