package cache

import (
	"fmt"

	"pmemspec/internal/mem"
)

// Level identifies where an access was satisfied.
type Level uint8

const (
	// LevelL1 means the access hit the requesting core's private L1.
	LevelL1 Level = iota
	// LevelLLC means the access was satisfied by the shared LLC (which
	// includes dirty data supplied by another core's L1 through the
	// shared cache).
	LevelLLC
	// LevelMemory means the access missed the hierarchy and must be
	// served by the PM controller.
	LevelMemory
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelLLC:
		return "LLC"
	case LevelMemory:
		return "Memory"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// AccessResult describes the outcome of a load or store.
type AccessResult struct {
	// Level is where the access was satisfied (for a store miss, where
	// the write-allocate fetch was satisfied).
	Level Level
	// Line is the L1 line now holding the block (after any fill).
	Line *Line
	// LLCEvicted lists blocks displaced from the LLC by this access, in
	// eviction order. The machine layer decides their fate per design.
	LLCEvicted []Evicted
}

// Hierarchy is the full simulated cache system: one private L1 per core
// plus a shared inclusive LLC. It is not safe for concurrent use; the
// simulation kernel serializes all accesses.
type Hierarchy struct {
	l1s []*Cache
	llc *Cache
	// sharers holds, per memory block, the bitmap of L1s currently
	// holding it (cores ≤ 64, per the paper's largest configuration).
	// Lookups panic outside the served region.
	sharers *mem.BlockTable[uint64]

	// InvalidationsSent counts cross-core invalidations (statistics).
	InvalidationsSent uint64
}

// NewHierarchy builds ncores private L1s of l1Bytes/l1Ways each and a
// shared LLC of llcBytes/llcWays serving the memory region
// [base, base+memBytes).
func NewHierarchy(ncores, l1Bytes, l1Ways, llcBytes, llcWays int, base mem.Addr, memBytes uint64) *Hierarchy {
	if ncores < 1 || ncores > 64 {
		panic(fmt.Sprintf("cache: ncores %d out of range [1,64]", ncores))
	}
	h := &Hierarchy{
		llc:     New("LLC", llcBytes, llcWays),
		sharers: mem.NewBlockTable[uint64](base, memBytes),
	}
	for i := 0; i < ncores; i++ {
		h.l1s = append(h.l1s, New(fmt.Sprintf("L1-%d", i), l1Bytes, l1Ways))
	}
	return h
}

// L1 returns core's private L1 (for statistics and tests).
func (h *Hierarchy) L1(core int) *Cache { return h.l1s[core] }

// LLC returns the shared cache (for statistics and tests).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// Cores returns the number of cores.
func (h *Hierarchy) Cores() int { return len(h.l1s) }

// Load performs a read by core. On an L1 miss the block is filled into
// the L1 (and the LLC if absent there) with all displaced-line handling
// reported in the result.
func (h *Hierarchy) Load(core int, a mem.Addr) AccessResult {
	blk := mem.BlockAlign(a)
	if l := h.l1s[core].Lookup(blk); l != nil {
		return AccessResult{Level: LevelL1, Line: l}
	}
	var res AccessResult
	if l := h.llc.Lookup(blk); l != nil {
		res.Level = LevelLLC
		// Inherit any stale override the LLC copy carries.
		res.Line = h.fillL1(core, blk, l.divergent, &res)
		return res
	}
	// Miss everywhere: the caller fetches from PM, then calls FillFromMemory.
	res.Level = LevelMemory
	return res
}

// FillFromMemory installs a block fetched from the PM controller into the
// LLC and the requesting core's L1. divergent carries stale contents if
// the fetch returned data older than the architectural image (PMEM-Spec
// stale read); pass nil for an up-to-date fetch.
func (h *Hierarchy) FillFromMemory(core int, a mem.Addr, divergent *[mem.BlockSize]byte) AccessResult {
	blk := mem.BlockAlign(a)
	var res AccessResult
	llcLine, ev, evicted := h.llc.Insert(blk)
	llcLine.divergent = divergent
	if evicted {
		h.evictFromLLC(ev, &res)
	}
	res.Level = LevelMemory
	res.Line = h.fillL1(core, blk, divergent, &res)
	return res
}

// Store performs a write by core with write-allocate semantics. The
// returned Level reports where the block was found (LevelMemory means the
// caller must fetch the block, call FillFromMemory, and then call
// CompleteStore to apply the write). For L1/LLC outcomes the line is
// already marked dirty and other cores' copies are invalidated.
func (h *Hierarchy) Store(core int, a mem.Addr) AccessResult {
	blk := mem.BlockAlign(a)
	if l := h.l1s[core].Lookup(blk); l != nil {
		h.invalidateOthers(core, blk)
		l.dirty = true
		return AccessResult{Level: LevelL1, Line: l}
	}
	var res AccessResult
	if l := h.llc.Lookup(blk); l != nil {
		res.Level = LevelLLC
		line := h.fillL1(core, blk, l.divergent, &res)
		h.invalidateOthers(core, blk)
		line.dirty = true
		res.Line = line
		return res
	}
	res.Level = LevelMemory
	return res
}

// CompleteStore marks the freshly filled line dirty after a write-
// allocate fetch (FillFromMemory) finished.
func (h *Hierarchy) CompleteStore(core int, a mem.Addr) {
	l := h.l1s[core].Peek(a)
	if l == nil {
		panic("cache: CompleteStore without a filled line")
	}
	h.invalidateOthers(core, mem.BlockAlign(a))
	l.dirty = true
}

// fillL1 installs blk into core's L1, folding any displaced dirty line
// back into the LLC (which is inclusive, so the block is present there).
func (h *Hierarchy) fillL1(core int, blk mem.Addr, divergent *[mem.BlockSize]byte, res *AccessResult) *Line {
	line, ev, evicted := h.l1s[core].Insert(blk)
	line.divergent = divergent
	*h.sharers.Ptr(blk) |= 1 << uint(core)
	if evicted {
		h.clearSharer(core, ev.Addr)
		if ev.Dirty || ev.Divergent != nil {
			// Inclusive LLC: the displaced block folds back into its LLC
			// copy. If the LLC copy was itself evicted by this same access
			// (possible only in adversarial geometries), drop it.
			if ll := h.llc.Peek(ev.Addr); ll != nil {
				if ev.Dirty {
					ll.dirty = true
				}
				if ev.Divergent != nil {
					ll.divergent = ev.Divergent
				}
			}
		}
	}
	return line
}

// invalidateOthers removes every other core's L1 copy of blk, folding
// dirtiness into the LLC copy (ownership transfers through the shared
// cache in this simplified protocol).
func (h *Hierarchy) invalidateOthers(core int, blk mem.Addr) {
	e := h.sharers.Find(blk)
	if e == nil {
		return
	}
	bm := *e &^ (1 << uint(core))
	if bm == 0 {
		return
	}
	for c := 0; bm != 0; c++ {
		if bm&(1<<uint(c)) == 0 {
			continue
		}
		bm &^= 1 << uint(c)
		if ev, ok := h.l1s[c].Invalidate(blk); ok {
			h.InvalidationsSent++
			if ev.Dirty || ev.Divergent != nil {
				if ll := h.llc.Peek(blk); ll != nil {
					if ev.Dirty {
						ll.dirty = true
					}
					if ev.Divergent != nil {
						ll.divergent = ev.Divergent
					}
				}
			}
		}
	}
	*e &= 1 << uint(core)
}

// evictFromLLC handles an LLC victim: invalidate all L1 copies (inclusive
// hierarchy), merge their dirtiness, and report the final eviction.
func (h *Hierarchy) evictFromLLC(ev Evicted, res *AccessResult) {
	var bm uint64
	if e := h.sharers.Find(ev.Addr); e != nil {
		bm, *e = *e, 0
	}
	for c := 0; bm != 0; c++ {
		if bm&(1<<uint(c)) == 0 {
			continue
		}
		bm &^= 1 << uint(c)
		if l1ev, ok := h.l1s[c].Invalidate(ev.Addr); ok {
			h.InvalidationsSent++
			if l1ev.Dirty {
				ev.Dirty = true
			}
			if l1ev.Divergent != nil {
				ev.Divergent = l1ev.Divergent
			}
		}
	}
	res.LLCEvicted = append(res.LLCEvicted, ev)
}

func (h *Hierarchy) clearSharer(core int, blk mem.Addr) {
	if e := h.sharers.Find(blk); e != nil {
		*e &^= 1 << uint(core)
	}
}

// FindBlock reports where a block currently resides: the owning L1 line
// (preferring core's own), the LLC line, or neither. Used by CLWB.
func (h *Hierarchy) FindBlock(core int, a mem.Addr) (l1 *Line, llc *Line) {
	blk := mem.BlockAlign(a)
	if l := h.l1s[core].Peek(blk); l != nil {
		l1 = l
	} else if e := h.sharers.Find(blk); e != nil && *e != 0 {
		for c := 0; c < len(h.l1s); c++ {
			if *e&(1<<uint(c)) != 0 {
				if l := h.l1s[c].Peek(blk); l != nil {
					l1 = l
					break
				}
			}
		}
	}
	llc = h.llc.Peek(blk)
	return l1, llc
}

// CleanBlock clears the dirty bit on every cached copy of a's block
// (after a CLWB writeback completed). Contents are retained (CLWB does
// not invalidate).
func (h *Hierarchy) CleanBlock(a mem.Addr) {
	blk := mem.BlockAlign(a)
	if e := h.sharers.Find(blk); e != nil {
		for bm, c := *e, 0; bm != 0; c++ {
			if bm&(1<<uint(c)) == 0 {
				continue
			}
			bm &^= 1 << uint(c)
			if l := h.l1s[c].Peek(blk); l != nil {
				l.dirty = false
			}
		}
	}
	if l := h.llc.Peek(blk); l != nil {
		l.dirty = false
	}
}

// Cached reports whether a's block is present anywhere in the hierarchy.
func (h *Hierarchy) Cached(a mem.Addr) bool {
	return h.llc.Peek(a) != nil
}

// FlushAll drops the entire volatile hierarchy (crash).
func (h *Hierarchy) FlushAll() {
	for _, c := range h.l1s {
		c.Flush()
	}
	h.llc.Flush()
	h.sharers.Reset()
}
