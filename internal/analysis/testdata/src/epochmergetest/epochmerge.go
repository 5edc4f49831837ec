// Package epochmergetest is the epochmerge golden fixture, run with
// persistflow: each // want comment names a substring of the
// diagnostic one of them must report on that line; the refusal cases (intervening flushes —
// the cross-epoch conflict, conditional fences, opaque calls, escaping
// returns) are verified by their silence.
package epochmergetest

import (
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/persist"
)

// hook is an opaque call target.
var hook func(*machine.Thread)

// counter is volatile bookkeeping; bump is persistency-clean
// (summary pf:clean) and must be transparent to the epoch tracking.
var counter int

func bump() { counter++ }

// logThenData is the motivating shape: the log epoch's fence is
// witnessed by the data epoch's fence with only stores in between, so
// on flush-epoch designs the first fence partitions the identical
// flush set and merges away.
func logThenData(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t) // want "epochs merge"
	t.StoreU64(b, 2)
	m.OrderBarrier(t)
	m.Flush(t, b, 8)
	m.DurableBarrier(t)
}

// witnessedByDurable: a durable barrier witnesses the epoch like an
// ordering one (stronger); b is never flushed, a persistflow finding.
func witnessedByDurable(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t) // want "epochs merge"
	t.StoreU64(b, 2)  // want "still dirty at return"
	m.DurableBarrier(t)
}

// cleanCallTransparent: a callee summarized pf:clean between the pair
// does not end the epoch (the interprocedural case).
func cleanCallTransparent(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t) // want "epochs merge"
	t.StoreU64(b, 2)
	bump()
	m.OrderBarrier(t)
	m.Flush(t, b, 8)
	m.DurableBarrier(t)
}

// loopedCommit: the per-operation commit loop — the candidate must
// survive the back-edge join (the epoch state is empty at both ends of
// each iteration).
func loopedCommit(t *machine.Thread, m persist.Model, a, b mem.Addr, n int) {
	for k := 0; k < n; k++ {
		t.StoreU64(a, uint64(k))
		m.Flush(t, a, 8)
		m.OrderBarrier(t) // want "epochs merge"
		t.StoreU64(b, uint64(k))
		m.OrderBarrier(t)
		m.Flush(t, b, 8)
		m.DurableBarrier(t)
	}
}

// flushBetweenRefused is the cross-epoch conflict: the flush between
// the pair is exactly what the first fence orders against the second
// epoch — deleting it would let the flush reorder. Silent.
func flushBetweenRefused(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
	t.StoreU64(b, 2)
	m.Flush(t, b, 8)
	m.OrderBarrier(t)
	m.DurableBarrier(t)
}

// noStoreBetween: back-to-back fences with nothing between are
// redundantbarrier's claim, not an epoch merge. Silent.
func noStoreBetween(t *machine.Thread, m persist.Model, a mem.Addr) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
	m.OrderBarrier(t)
	m.DurableBarrier(t)
}

// condFenceRefused: the candidate only executes on one path, so the
// join dooms it. Silent.
func condFenceRefused(t *machine.Thread, m persist.Model, a, b mem.Addr, cond bool) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	if cond {
		m.OrderBarrier(t)
	}
	t.StoreU64(b, 2)
	m.OrderBarrier(t)
	m.Flush(t, b, 8)
	m.DurableBarrier(t)
}

// opaqueCallRefused: a call with unseeable effects between the pair
// may flush. Silent.
func opaqueCallRefused(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
	t.StoreU64(b, 2)
	hook(t)
	m.OrderBarrier(t)
	m.Flush(t, b, 8)
	m.DurableBarrier(t)
}

// returnBetweenRefused: a path that returns between the pair leaves
// the first fence as the only ordering for the flush before it. Silent.
func returnBetweenRefused(t *machine.Thread, m persist.Model, a, b mem.Addr, cond bool) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
	if cond {
		return
	}
	t.StoreU64(b, 2)
	m.OrderBarrier(t)
	m.Flush(t, b, 8)
	m.DurableBarrier(t)
}

// protocolBarrierRefused: NextUpdate is a protocol barrier, neither a
// deletable candidate nor a witness. Silent.
func protocolBarrierRefused(t *machine.Thread, m persist.Model, a, b mem.Addr) {
	t.StoreU64(a, 1)
	m.Flush(t, a, 8)
	m.OrderBarrier(t)
	t.StoreU64(b, 2)
	m.NextUpdate(t)
	m.Flush(t, b, 8)
	m.DurableBarrier(t)
}
