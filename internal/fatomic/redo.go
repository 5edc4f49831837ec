package fatomic

import (
	"fmt"

	"pmemspec/internal/core"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/osint"
	"pmemspec/internal/persist"
)

// Log-header words shared by the two runtimes (per-thread log region):
// +0 committed sequence, +8 applied sequence (redo only), +16 runtime
// mode. A zeroed header reads as the undo runtime, so legacy images
// recover unchanged.
const (
	hdrCommitted = 0
	hdrApplied   = 8
	hdrMode      = 16

	modeUndo = 0
	modeRedo = 1
)

// RedoRuntime is the transaction-based alternative to the undo-logging
// Runtime — the Mnemosyne/DudeTM shape the paper's §6.1.2 points at:
// writes are buffered in a volatile write set and appended to a redo
// log; nothing touches the data in place until the commit marker is
// durable, so aborting a transaction (the "naturally provided" abort
// handler) just discards the write set. Recovery replays the log of a
// committed-but-unapplied transaction; uncommitted logs are discarded.
//
// The ordering profile differs from undo logging: redo needs no
// per-store order barrier (entries only have to precede the commit
// marker), at the price of extra durability barriers at commit and
// write-set indirection on reads — which is why relaxed-model hardware
// favours it, while PMEM-Spec's free per-store ordering makes undo
// logging equally cheap (see BenchmarkLoggingStyles).
type RedoRuntime struct {
	m     *machine.Machine
	model persist.Model
	mode  Mode
	state []threadState

	// Stats is the runtime activity record.
	Stats Stats
}

// NewRedo creates a redo-logging runtime and registers its
// misspeculation handler with the OS.
func NewRedo(m *machine.Machine, model persist.Model, os *osint.OS, mode Mode) *RedoRuntime {
	r := &RedoRuntime{
		m:     m,
		model: model,
		mode:  mode,
		state: make([]threadState, m.Config().Cores),
	}
	for i := range r.state {
		r.state[i].nextSeq = 1
	}
	if os != nil {
		os.Register(1, m.Space().Base(), m.Space().Size(), r.onMisspec)
	}
	return r
}

// Model returns the instrumentation model in use.
func (r *RedoRuntime) Model() persist.Model { return r.model }

// WarmLog pre-faults the thread's log region and stamps it as a redo
// log for recovery dispatch.
func (r *RedoRuntime) WarmLog(t *machine.Thread) {
	base := logBase(r.m.Space().Base(), t.Core())
	for off := mem.Addr(0); off < LogRegionBytes; off += mem.BlockSize {
		t.StorePrivateU64(base+off, 0)
	}
	t.StorePrivateU64(base+hdrMode, modeRedo)
	r.model.Flush(t, base, mem.BlockSize)
	r.model.DurableBarrier(t)
	st := &r.state[t.Core()]
	if committed := t.LoadU64(base + hdrCommitted); committed >= st.nextSeq {
		st.nextSeq = committed + 1
	}
}

func (r *RedoRuntime) onMisspec(core.Misspeculation) {
	r.Stats.MisspecSignals++
	for i := range r.state {
		if r.state[i].inFASE {
			r.state[i].misspec = true
		}
	}
}

// redoWrite is one buffered transactional write.
type redoWrite struct {
	addr mem.Addr
	data []byte
}

// Tx is a redo-logged transaction handle.
type Tx struct {
	r      *RedoRuntime
	t      *machine.Thread
	tid    int
	base   mem.Addr
	seq    uint64
	count  uint64
	writes []redoWrite
}

// Run executes body as a redo-logged transaction, re-executing it on a
// misspeculation abort. Nothing reaches the in-place data until the
// commit marker is durable.
func (r *RedoRuntime) Run(t *machine.Thread, body func(tx *Tx)) {
	tid := t.Core()
	st := &r.state[tid]
	for {
		st.misspec = false
		st.inFASE = true
		tx := &Tx{r: r, t: t, tid: tid, base: logBase(r.m.Space().Base(), tid), seq: st.nextSeq}
		st.nextSeq++
		committed := r.attemptTx(tx, body)
		st.inFASE = false
		if committed {
			r.Stats.FASEs++
			return
		}
		// Abort is free: the write set is volatile and the log entries
		// become garbage (their sequence never commits).
		r.Stats.Aborts++
	}
}

func (r *RedoRuntime) attemptTx(tx *Tx, body func(tx *Tx)) (committed bool) {
	t := tx.t
	defer func() {
		if rec := recover(); rec != nil {
			switch rec.(type) {
			case abortSignal:
				committed = false
			case *machine.Fault:
				if r.state[tx.tid].misspec {
					r.Stats.FaultsSuppressed++
					committed = false
					return
				}
				panic(rec)
			default:
				panic(rec)
			}
		}
	}()
	body(tx)
	// 1. Entries durable (they were only flushed, never ordered).
	r.model.DurableBarrier(t)
	if r.state[tx.tid].misspec {
		return false
	}
	// 2. Commit marker durable before any in-place write.
	t.StorePrivateU64(tx.base+hdrCommitted, tx.seq)
	r.model.Flush(t, tx.base, 8)
	r.model.DurableBarrier(t)
	// 3. Apply the write set in order; a crash here replays from the log.
	for _, w := range tx.writes {
		t.Store(w.addr, w.data)
		r.model.Flush(t, w.addr, len(w.data))
	}
	r.model.DurableBarrier(t)
	// 4. Retire the log (ordered, not awaited).
	t.StorePrivateU64(tx.base+hdrApplied, tx.seq)
	r.model.Flush(t, tx.base+hdrApplied, 8)
	r.model.OrderBarrier(t)
	return true
}

func (x *Tx) checkEager() {
	if x.r.mode == Eager && x.r.state[x.tid].misspec {
		panic(abortSignal{})
	}
}

// Thread returns the executing machine thread.
func (x *Tx) Thread() *machine.Thread { return x.t }

// Seq returns this attempt's sequence number (tests).
func (x *Tx) Seq() uint64 { return x.seq }

// Load reads PM, seeing the transaction's own buffered writes.
func (x *Tx) Load(a mem.Addr, p []byte) {
	x.checkEager()
	x.t.Load(a, p)
	// Overlay buffered writes in order (last write wins).
	for _, w := range x.writes {
		overlay(a, p, w.addr, w.data)
	}
}

// LoadU64 reads a u64 through the write set.
func (x *Tx) LoadU64(a mem.Addr) uint64 {
	var b [8]byte
	x.Load(a, b[:])
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// overlay copies the intersection of [wa, wa+len(wd)) into the read
// buffer window [a, a+len(p)).
func overlay(a mem.Addr, p []byte, wa mem.Addr, wd []byte) {
	lo, hi := a, a+mem.Addr(len(p))
	wlo, whi := wa, wa+mem.Addr(len(wd))
	if whi <= lo || wlo >= hi {
		return
	}
	if wlo < lo {
		wd = wd[lo-wlo:]
		wlo = lo
	}
	if whi > hi {
		wd = wd[:hi-wlo]
	}
	copy(p[wlo-lo:], wd)
}

// Store buffers a transactional write and appends it to the redo log.
// Unlike undo logging, no ordering barrier is needed per store.
func (x *Tx) Store(a mem.Addr, p []byte) {
	x.checkEager()
	for off := 0; off < len(p); {
		n := len(p) - off
		if n > MaxEntryData {
			n = MaxEntryData
		}
		x.storeOne(a+mem.Addr(off), p[off:off+n])
		off += n
	}
}

// StoreU64 buffers a u64 write.
func (x *Tx) StoreU64(a mem.Addr, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	x.Store(a, b[:])
}

// storeOne appends one log entry and flushes it. Ordering is deferred:
// redo entries only have to be durable before the commit marker, and
// attemptTx issues that single DurableBarrier — the scheme's whole
// point is avoiding a per-store fence. The per-location analyzer would
// flag the flushed-but-unordered entries at return; the protocol orders
// them one call layer up.
//
//lint:allow persistflow
func (x *Tx) storeOne(a mem.Addr, p []byte) {
	if x.count >= EntryCap {
		panic(fmt.Sprintf("fatomic: transaction exceeded %d log entries", EntryCap))
	}
	t := x.t
	e := entryAddr(x.base, x.count)
	sum := entryChecksum(a, uint64(len(p)), x.seq, p)
	t.StorePrivateU64(e, uint64(a))
	t.StorePrivateU64(e+8, uint64(len(p)))
	t.StorePrivateU64(e+16, x.seq)
	t.StorePrivateU64(e+24, sum)
	t.StorePrivate(e+entryHdr, p)
	x.count++
	x.r.model.Flush(t, e, entryHdr+len(p))
	d := make([]byte, len(p))
	copy(d, p)
	x.writes = append(x.writes, redoWrite{addr: a, data: d})
}

// Abort aborts the transaction (free under redo logging).
func (x *Tx) Abort() {
	panic(abortSignal{})
}

// recoverRedoThread replays a committed-but-unapplied transaction from
// the redo log (or discards an uncommitted one) on the persisted image.
func recoverRedoThread(img *mem.Image, base mem.Addr) (entriesReplayed int, rolledBack bool, err error) {
	committed := img.ReadU64(base + hdrCommitted)
	applied := img.ReadU64(base + hdrApplied)
	if committed == applied {
		return 0, false, nil
	}
	if committed < applied {
		return 0, false, fmt.Errorf("fatomic: redo header corrupt (committed %d < applied %d)", committed, applied)
	}
	var buf [MaxEntryData]byte
	for i := uint64(0); i < EntryCap; i++ {
		e := entryAddr(base, i)
		addr := mem.Addr(img.ReadU64(e))
		n := img.ReadU64(e + 8)
		seq := img.ReadU64(e + 16)
		sum := img.ReadU64(e + 24)
		if n == 0 || n > MaxEntryData || seq != committed {
			break
		}
		img.Read(e+entryHdr, buf[:n])
		if entryChecksum(addr, n, seq, buf[:n]) != sum {
			// The marker is durable strictly after every entry, so a torn
			// entry under a committed sequence is corruption.
			return entriesReplayed, true, fmt.Errorf("fatomic: torn redo entry under committed sequence %d", committed)
		}
		if !img.Contains(addr, int(n)) {
			return entriesReplayed, true, fmt.Errorf("fatomic: redo entry targets %#x outside image", uint64(addr))
		}
		img.Write(addr, buf[:n])
		entriesReplayed++
	}
	img.WriteU64(base+hdrApplied, committed)
	return entriesReplayed, true, nil
}
