// Package cache models the simulated cache hierarchy: per-core private
// L1 data caches and a shared, inclusive last-level cache (LLC), with
// LRU replacement, write-allocate stores, and an invalidation-based
// single-writer coherence protocol.
//
// The hierarchy is purely structural: it decides hits, misses, fills,
// invalidations and evictions, and reports which blocks leave the LLC
// (and whether they are dirty). The machine layer attaches latencies and
// decides what a dirty LLC eviction means — written back to PM
// (IntelX86), silently dropped (HOPS/DPO), or dropped with a WriteBack
// notification to the PM controller (PMEM-Spec, which needs the
// notification to arm load-misspeculation monitoring).
//
// Lines can carry a "divergent" data override: when a PMEM-Spec load
// misses all caches and fetches a stale block from PM, the stale bytes
// are cached and must be returned by subsequent hits until the line is
// overwritten or evicted. That is what makes simulated stale reads
// propagate into program state the way they would on real hardware.
//
// L1s and the LLC share one Cache type whose set storage is allocated a
// chunk of sets at a time, on the first fill: a machine's cache footprint
// follows the blocks its program touches, not the configured capacity,
// and the crash flush drops chunks instead of clearing them.
package cache

import (
	"fmt"

	"pmemspec/internal/mem"
)

// Line is one cache line's metadata. LRU timestamps live in the chunk's
// packed uses array, not here, so the victim scan stays on 8-byte words.
type Line struct {
	addr  mem.Addr // block-aligned tag; meaningful only if valid
	valid bool
	dirty bool
	// divergent, when non-nil, holds the line's actual contents where
	// they differ from the architectural image (stale fetch).
	divergent *[mem.BlockSize]byte
}

// Addr returns the block address held by the line.
func (l *Line) Addr() mem.Addr { return l.addr }

// Dirty reports whether the line holds unwritten modifications.
func (l *Line) Dirty() bool { return l.dirty }

// Divergent returns the line's stale-content override, or nil.
func (l *Line) Divergent() *[mem.BlockSize]byte { return l.divergent }

// MarkDirty marks the line modified.
func (l *Line) MarkDirty() { l.dirty = true }

// Evicted describes a line that left a cache.
type Evicted struct {
	Addr      mem.Addr
	Dirty     bool
	Divergent *[mem.BlockSize]byte
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// Cache is one set-associative cache with LRU replacement.
//
// Storage is footprint-proportional: the sets live in chunks of
// chunkSets consecutive sets, reached through a fixed-length directory,
// and a chunk is allocated on the first fill of any of its sets. A
// program touching a few thousand blocks therefore pays for a few
// chunks, not for the whole 16 MB LLC; probes of a set whose chunk is
// absent are misses and allocate nothing.
//
// Within a chunk, tags are kept in a packed parallel array: the hit scan
// — the hottest loop in the whole simulator (a 16-way LLC probe touches
// every way) — then walks 8-byte words instead of Line structs. A slot's
// tag is its line's block address when valid and invalidTag otherwise;
// block addresses are 64-byte aligned, so invalidTag (all ones) can never
// collide with one.
type Cache struct {
	name    string
	dir     []*chunk // one entry per chunkSets sets; nil until first fill
	nsets   int
	ways    int
	setMask uint64
	counter uint64

	// Stats is the cache's activity counters.
	Stats Stats
}

// chunk holds the ways of chunkSets consecutive sets (all of a cache's
// sets when it has fewer): packed tags and LRU timestamps, and the lines.
// A chunk never moves once allocated, so *Line pointers into it stay
// valid until Flush drops it.
type chunk struct {
	tags  []uint64
	uses  []uint64
	lines []Line
}

const (
	invalidTag = ^uint64(0)

	// chunkSets is the number of consecutive sets allocated together:
	// 64 sets of a 16-way cache are 1024 ways, 40 KB of tags, LRU words
	// and lines. Large enough that the directory of a 256 MB LLC stays at
	// 4096 pointers, small enough that a sparse footprint wastes little.
	chunkSets  = 64
	chunkShift = 6 // log2(chunkSets)

	blockShift = 6 // log2(BlockSize)
)

// New creates a cache of sizeBytes capacity and the given associativity.
// sizeBytes must be a multiple of ways×BlockSize with a power-of-two set
// count. No set storage is allocated until the first Insert.
func New(name string, sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || sizeBytes%(ways*mem.BlockSize) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d bytes / %d ways", sizeBytes, ways))
	}
	nsets := sizeBytes / (ways * mem.BlockSize)
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	return &Cache{
		name:    name,
		dir:     make([]*chunk, (nsets+chunkSets-1)/chunkSets),
		nsets:   nsets,
		ways:    ways,
		setMask: uint64(nsets - 1),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// AllocatedSets returns how many sets have storage, a whole number of
// chunks: the cache's footprint, for footprint tests.
func (c *Cache) AllocatedSets() int {
	n := 0
	for _, ch := range c.dir {
		if ch != nil {
			n += len(ch.lines) / c.ways
		}
	}
	return n
}

// locate returns the chunk holding blk's set (nil if not yet allocated)
// and the index of the set's first way within it.
func (c *Cache) locate(blk mem.Addr) (*chunk, int) {
	set := uint64(blk) >> blockShift & c.setMask
	return c.dir[set>>chunkShift], int(set&(chunkSets-1)) * c.ways
}

// Lookup returns the line holding a's block and refreshes its LRU
// position, or nil on miss. It updates hit/miss statistics.
func (c *Cache) Lookup(a mem.Addr) *Line {
	blk := mem.BlockAlign(a)
	if ch, base := c.locate(blk); ch != nil {
		for i, t := range ch.tags[base : base+c.ways] {
			if t == uint64(blk) {
				c.counter++
				ch.uses[base+i] = c.counter
				c.Stats.Hits++
				return &ch.lines[base+i]
			}
		}
	}
	c.Stats.Misses++
	return nil
}

// Peek returns the line holding a's block without touching LRU or stats.
func (c *Cache) Peek(a mem.Addr) *Line {
	blk := mem.BlockAlign(a)
	if ch, base := c.locate(blk); ch != nil {
		for i, t := range ch.tags[base : base+c.ways] {
			if t == uint64(blk) {
				return &ch.lines[base+i]
			}
		}
	}
	return nil
}

// Insert fills a's block into the cache, returning the filled line and,
// if a valid line had to be displaced, its description (evicted reports
// whether ev is meaningful — the description is returned by value so the
// per-access hot path allocates nothing). Inserting an already-present
// block refreshes it in place (no eviction). The victim is the set's
// first invalid way, else its least recently used one. The first fill of
// a set whose chunk is absent allocates the chunk.
func (c *Cache) Insert(a mem.Addr) (line *Line, ev Evicted, evicted bool) {
	blk := mem.BlockAlign(a)
	ch, base := c.locate(blk)
	if ch == nil {
		ch = c.allocChunk(blk)
	}
	invalid, lruIdx := -1, -1
	var lruUse uint64
	for i, t := range ch.tags[base : base+c.ways] {
		if t == uint64(blk) {
			c.counter++
			ch.uses[base+i] = c.counter
			return &ch.lines[base+i], Evicted{}, false
		}
		if t == invalidTag {
			if invalid < 0 {
				invalid = base + i
			}
			continue
		}
		if u := ch.uses[base+i]; lruIdx < 0 || u < lruUse {
			lruIdx = base + i
			lruUse = u
		}
	}
	victim := invalid
	if victim < 0 {
		victim = lruIdx
	}
	v := &ch.lines[victim]
	if v.valid {
		ev = Evicted{Addr: v.addr, Dirty: v.dirty, Divergent: v.divergent}
		evicted = true
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.DirtyEvictions++
		}
	}
	c.counter++
	*v = Line{addr: blk, valid: true}
	ch.tags[victim] = uint64(blk)
	ch.uses[victim] = c.counter
	return v, ev, evicted
}

// allocChunk allocates and installs the chunk holding blk's set, every
// way invalid.
func (c *Cache) allocChunk(blk mem.Addr) *chunk {
	n := min(c.nsets, chunkSets) * c.ways
	ch := &chunk{
		tags:  make([]uint64, n),
		uses:  make([]uint64, n),
		lines: make([]Line, n),
	}
	for i := range ch.tags {
		ch.tags[i] = invalidTag
	}
	c.dir[(uint64(blk)>>blockShift&c.setMask)>>chunkShift] = ch
	return ch
}

// Invalidate removes a's block if present, returning its description by
// value (ok reports presence).
func (c *Cache) Invalidate(a mem.Addr) (ev Evicted, ok bool) {
	blk := mem.BlockAlign(a)
	ch, base := c.locate(blk)
	if ch == nil {
		return Evicted{}, false
	}
	for i, t := range ch.tags[base : base+c.ways] {
		if t == uint64(blk) {
			l := &ch.lines[base+i]
			ev = Evicted{Addr: l.addr, Dirty: l.dirty, Divergent: l.divergent}
			*l = Line{}
			ch.tags[base+i] = invalidTag
			return ev, true
		}
	}
	return Evicted{}, false
}

// Flush empties the cache without reporting evictions (used to model the
// volatile state loss at a crash) by dropping every chunk; the next fill
// of a set allocates its chunk afresh. A *Line obtained before Flush
// points into a dropped chunk and must not be used after it. The only
// caller, Hierarchy.FlushAll, runs from the machine's crash event, which
// stops the kernel and unwinds every simulated thread, so no line pointer
// a thread holds (a store keeps one across a yield) outlives it.
func (c *Cache) Flush() {
	clear(c.dir)
}
