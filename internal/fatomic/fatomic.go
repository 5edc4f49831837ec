// Package fatomic is the failure-atomic runtime of §6: undo-logging
// FASEs (failure-atomic sections) over the simulated persistent memory,
// with the software support PMEM-Spec requires — per-thread
// misspeculation flags, an abort handler that erases intermediate
// volatile and non-volatile state and re-executes the interrupted FASE,
// lazy and eager recovery modes, and suppression of exceptions caused by
// consumed stale data (§6.2.1).
//
// The same FASE implementation runs on every evaluated design, with the
// ordering instrumentation of Figure 2 delegated to a persist.Model —
// per update: log entry → flush → order barrier → data write → flush →
// order barrier (CLWB+SFENCE twice on IntelX86/DPO, two ofences on HOPS,
// nothing on PMEM-Spec) — and a durability barrier at the section end.
//
// Undo-log entries are self-validating (sequence number + checksum), the
// standard torn-entry defence: no separate count word has to be ordered
// against the entry body. A section commits by persisting its sequence
// number into the log header; recovery undoes every valid entry whose
// sequence exceeds the committed one.
//
// PM layout (within the machine's PM region):
//
//	base + 0      OS designated space (one block)
//	base + 4096   per-thread undo logs, LogRegionBytes each:
//	                +0   committed FASE sequence (u64)
//	                +64  entries, EntrySize bytes each:
//	                       +0  target address (u64)
//	                       +8  length (u64)
//	                       +16 attempt sequence (u64)
//	                       +24 checksum (u64, FNV-1a over the above+data)
//	                       +32 prior data (up to MaxEntryData bytes)
//	heap …        everything after HeapReserve(threads)
package fatomic

import (
	"fmt"

	"pmemspec/internal/core"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/osint"
	"pmemspec/internal/persist"
)

// Log geometry.
const (
	// LogRegionBytes is each thread's undo-log area.
	LogRegionBytes = 64 * 1024
	// EntrySize is the stride between log entries.
	EntrySize = 128
	// MaxEntryData is the data payload capacity of one entry.
	MaxEntryData = 64
	// entryHdr is the entry header size (addr, len, seq, checksum).
	entryHdr = 32
	// logsOffset is where the per-thread logs start within PM.
	logsOffset = 4096
	// EntryCap is the number of entries one FASE may write.
	EntryCap = (LogRegionBytes - mem.BlockSize) / EntrySize
)

// HeapReserve returns how many bytes at the base of PM the runtime (and
// the OS designated space) occupy for nthreads; workload heaps must
// start past it.
func HeapReserve(nthreads int) uint64 {
	return logsOffset + uint64(nthreads)*LogRegionBytes
}

func logBase(pmBase mem.Addr, tid int) mem.Addr {
	return pmBase + logsOffset + mem.Addr(tid)*LogRegionBytes
}

func entryAddr(base mem.Addr, i uint64) mem.Addr {
	return base + mem.BlockSize + mem.Addr(i)*EntrySize
}

// entryChecksum is FNV-1a over (addr, len, seq, data): a torn or stale
// entry fails validation during recovery.
func entryChecksum(addr mem.Addr, n uint64, seq uint64, data []byte) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	mix(uint64(addr))
	mix(n)
	mix(seq)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Mode selects the misspeculation recovery scheme of §6.2.
type Mode int

const (
	// Lazy recovery checks the misspeculation flag at FASE commit and
	// suppresses exceptions caused by stale data meanwhile.
	Lazy Mode = iota
	// Eager recovery aborts at the first runtime-mediated operation
	// after the flag is raised.
	Eager
)

func (m Mode) String() string {
	if m == Eager {
		return "eager"
	}
	return "lazy"
}

// Stats counts runtime activity.
type Stats struct {
	FASEs            uint64
	Aborts           uint64
	FaultsSuppressed uint64
	MisspecSignals   uint64
	// LoadSignals/StoreSignals split MisspecSignals by violation kind
	// (stale load vs out-of-order persist) — the crash campaign's
	// injection report keys on them.
	LoadSignals   uint64
	StoreSignals  uint64
	StageRetries  uint64
	UndoneEntries uint64
}

type threadState struct {
	inFASE  bool
	misspec bool
	nextSeq uint64
}

// abortSignal unwinds a FASE body for re-execution.
type abortSignal struct{}

// Runtime is the failure-atomic runtime for one simulated process.
type Runtime struct {
	m     *machine.Machine
	model persist.Model
	mode  Mode
	state []threadState

	// Stats is the runtime activity record.
	Stats Stats
}

// New creates a runtime on machine m using the design's instrumentation
// model and registers its misspeculation handler with the OS (§6.1.2:
// the runtime registers its process with the OS interrupt handler).
func New(m *machine.Machine, model persist.Model, os *osint.OS, mode Mode) *Runtime {
	r := &Runtime{
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
func (r *Runtime) Model() persist.Model { return r.model }

// WarmLog pre-faults thread t's undo-log region, as real failure-atomic
// runtimes do at startup (e.g. Mnemosyne pre-faults its logs): the
// write-allocate misses of first touch belong to initialization, not to
// the measured kernel. The pre-fault stores are deliberately left
// unfenced: their values are dead, only the cache-line allocation
// matters.
//
//lint:allow persistflow
func (r *Runtime) WarmLog(t *machine.Thread) {
	base := logBase(r.m.Space().Base(), t.Core())
	for off := mem.Addr(0); off < LogRegionBytes; off += mem.BlockSize {
		t.StorePrivateU64(base+off, 0)
	}
	st := &r.state[t.Core()]
	if committed := t.LoadU64(base); committed >= st.nextSeq {
		st.nextSeq = committed + 1
	}
}

// Mode returns the recovery mode.
func (r *Runtime) Mode() Mode { return r.mode }

// onMisspec is the misspeculation handler (§6.2): it flags every thread
// currently executing a FASE; threads outside FASEs are untouched.
func (r *Runtime) onMisspec(ms core.Misspeculation) {
	r.Stats.MisspecSignals++
	if ms.Kind == core.StoreMisspec {
		r.Stats.StoreSignals++
	} else {
		r.Stats.LoadSignals++
	}
	for i := range r.state {
		if r.state[i].inFASE {
			r.state[i].misspec = true
		}
	}
}

// FASE is the handle a failure-atomic section body uses for all PM
// access; its stores are undo-logged so the section can abort.
type FASE struct {
	r     *Runtime
	t     *machine.Thread
	tid   int
	base  mem.Addr // this thread's log base
	seq   uint64   // this attempt's sequence number
	count uint64   // entries appended by this attempt
}

// Run executes body as a failure-atomic section on thread t, re-executing
// it if a misspeculation (or a stale-data fault while one is pending)
// aborts it. The body must be re-executable: volatile intermediate state
// it computes must be derived from its captured inputs.
func (r *Runtime) Run(t *machine.Thread, body func(f *FASE)) {
	tid := t.Core()
	st := &r.state[tid]
	for {
		st.misspec = false
		st.inFASE = true
		f := &FASE{r: r, t: t, tid: tid, base: logBase(r.m.Space().Base(), tid), seq: st.nextSeq}
		st.nextSeq++
		committed := r.attempt(f, body)
		st.inFASE = false
		if committed {
			r.Stats.FASEs++
			return
		}
		r.Stats.Aborts++
		r.rollback(f)
	}
}

// attempt runs the body once and tries to commit. It reports false if
// the section must abort and re-execute.
func (r *Runtime) attempt(f *FASE, body func(f *FASE)) (committed bool) {
	t := f.t
	defer func() {
		if rec := recover(); rec != nil {
			switch rec.(type) {
			case abortSignal:
				committed = false
			case *machine.Fault:
				// A simulated segfault: if a misspeculation is pending,
				// the stale data caused it — suppress and abort
				// (§6.2.1). Otherwise it is a genuine program bug.
				if r.state[f.tid].misspec {
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
	body(f)
	// Commit. First the durability barrier: every data persist reaches
	// the persistent domain — which also means every misspeculation this
	// section's own persists could trigger has been detected and
	// delivered by now.
	r.model.DurableBarrier(t)
	if r.state[f.tid].misspec {
		// Lazy recovery: the flag check right before the FASE ends
		// (§6.2.1). Nothing is committed yet — the rollback undoes the
		// section.
		return false
	}
	// Persist the commit sequence, ordered behind everything above but
	// not awaited: a crash in this last transfer window rolls the
	// section back, which is indistinguishable from crashing an instant
	// before commit.
	t.StorePrivateU64(f.base, f.seq)
	r.model.Flush(t, f.base, 8)
	r.model.OrderBarrier(t)
	return true
}

// rollback undoes the aborted attempt: it restores the logged prior
// values in reverse order through the normal store path (erasing both
// the volatile cached state and, via the design's datapath, the
// non-volatile state). The entries become stale when a later attempt
// commits; they need no explicit truncation.
func (r *Runtime) rollback(f *FASE) {
	t := f.t
	var buf [MaxEntryData]byte
	for i := int64(f.count) - 1; i >= 0; i-- {
		e := entryAddr(f.base, uint64(i))
		addr := mem.Addr(t.LoadU64(e))
		n := t.LoadU64(e + 8)
		if n > MaxEntryData {
			panic(fmt.Sprintf("fatomic: corrupt log entry length %d", n))
		}
		t.Load(e+entryHdr, buf[:n])
		t.Store(addr, buf[:n])
		r.model.Flush(t, addr, int(n))
		r.Stats.UndoneEntries++
	}
	r.model.DurableBarrier(t)
}

// checkEager aborts immediately when eager recovery is selected and a
// misspeculation is pending.
func (f *FASE) checkEager() {
	if f.r.mode == Eager && f.r.state[f.tid].misspec {
		panic(abortSignal{})
	}
}

// Thread returns the executing machine thread (for compute delays etc.).
func (f *FASE) Thread() *machine.Thread { return f.t }

// Seq returns this attempt's sequence number (tests).
func (f *FASE) Seq() uint64 { return f.seq }

// Load reads PM inside the section.
func (f *FASE) Load(a mem.Addr, p []byte) {
	f.checkEager()
	f.t.Load(a, p)
}

// LoadU64 reads a u64 inside the section.
func (f *FASE) LoadU64(a mem.Addr) uint64 {
	f.checkEager()
	return f.t.LoadU64(a)
}

// Store writes PM inside the section with undo logging: the prior
// contents are logged and ordered before the data write, per the
// design's instrumentation (Figure 2).
func (f *FASE) Store(a mem.Addr, p []byte) {
	f.checkEager()
	for off := 0; off < len(p); {
		n := len(p) - off
		if n > MaxEntryData {
			n = MaxEntryData
		}
		f.storeOne(a+mem.Addr(off), p[off:off+n])
		off += n
	}
}

// StoreU64 writes a u64 inside the section with undo logging.
func (f *FASE) StoreU64(a mem.Addr, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	f.Store(a, b[:])
}

func (f *FASE) storeOne(a mem.Addr, p []byte) {
	if f.count >= EntryCap {
		panic(fmt.Sprintf("fatomic: FASE exceeded %d log entries", EntryCap))
	}
	t := f.t
	// 1. Log the prior value in a self-validating entry.
	var old [MaxEntryData]byte
	t.Load(a, old[:len(p)])
	e := entryAddr(f.base, f.count)
	sum := entryChecksum(a, uint64(len(p)), f.seq, old[:len(p)])
	t.StorePrivateU64(e, uint64(a))
	t.StorePrivateU64(e+8, uint64(len(p)))
	t.StorePrivateU64(e+16, f.seq)
	t.StorePrivateU64(e+24, sum)
	t.StorePrivate(e+entryHdr, old[:len(p)])
	f.count++
	// 2. Order the entry before the data write (one ordering point, as
	//    in Figure 2: clwb+sfence / ofence / nothing).
	f.r.model.Flush(t, e, entryHdr+len(p))
	f.r.model.OrderBarrier(t)
	// 3. The data write, flushed and ordered per update (Figure 2);
	//    NextUpdate closes the update (a fence on the epoch designs, a
	//    fresh strand on StrandWeaver).
	t.Store(a, p)
	f.r.model.Flush(t, a, len(p))
	f.r.model.NextUpdate(t)
}

// Abort aborts the current section programmatically (used by tests and
// by workloads that model explicit transaction aborts).
func (f *FASE) Abort() {
	panic(abortSignal{})
}
