package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pmemspec/internal/mem"
)

func TestCacheGeometry(t *testing.T) {
	c := New("t", 64*1024, 4) // 64KB 4-way: 256 sets
	if c.Sets() != 256 || c.Ways() != 4 {
		t.Errorf("sets=%d ways=%d, want 256, 4", c.Sets(), c.Ways())
	}
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	New("bad", 100, 3)
}

func TestCacheHitMiss(t *testing.T) {
	c := New("t", 1024, 2)
	if c.Lookup(0x100) != nil {
		t.Error("hit in empty cache")
	}
	c.Insert(0x100)
	l := c.Lookup(0x100)
	if l == nil {
		t.Fatal("miss after insert")
	}
	if l.Addr() != 0x100 {
		t.Errorf("line addr = %#x", uint64(l.Addr()))
	}
	if c.Lookup(0x140) != nil { // different block
		t.Error("false hit on neighbouring block")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestCacheSameBlockAliases(t *testing.T) {
	c := New("t", 1024, 2)
	c.Insert(0x103)
	if c.Lookup(0x13F) == nil {
		t.Error("addresses in one block must alias")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: fill a set with A and B, touch A, insert C — B (LRU)
	// must be evicted.
	c := New("t", 2*mem.BlockSize, 2) // 1 set, 2 ways
	c.Insert(0x000)                   // A
	c.Insert(0x040)                   // B
	c.Lookup(0x000)                   // touch A
	_, ev, evicted := c.Insert(0x080) // C evicts B
	if !evicted || ev.Addr != 0x040 {
		t.Fatalf("evicted %v %+v, want block 0x40", evicted, ev)
	}
	if c.Peek(0x000) == nil || c.Peek(0x080) == nil {
		t.Error("A or C missing after eviction")
	}
}

func TestCacheDirtyEvictionReported(t *testing.T) {
	c := New("t", 2*mem.BlockSize, 2)
	l, _, _ := c.Insert(0x000)
	l.MarkDirty()
	c.Insert(0x040)
	c.Lookup(0x040) // make 0x000 LRU
	_, ev, evicted := c.Insert(0x080)
	if !evicted || !ev.Dirty || ev.Addr != 0x000 {
		t.Fatalf("evicted %v %+v, want dirty block 0x0", evicted, ev)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Errorf("dirty evictions = %d", c.Stats.DirtyEvictions)
	}
}

func TestCacheReinsertRefreshes(t *testing.T) {
	c := New("t", 2*mem.BlockSize, 2)
	c.Insert(0x000)
	c.Insert(0x040)
	if _, _, evicted := c.Insert(0x000); evicted {
		t.Error("reinserting a present block must not evict")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := New("t", 1024, 2)
	l, _, _ := c.Insert(0x200)
	l.MarkDirty()
	ev, ok := c.Invalidate(0x200)
	if !ok || !ev.Dirty {
		t.Fatal("invalidate lost dirty state")
	}
	if c.Peek(0x200) != nil {
		t.Error("block still present after invalidate")
	}
	if _, ok := c.Invalidate(0x200); ok {
		t.Error("second invalidate should report absence")
	}
}

func TestCacheFlush(t *testing.T) {
	c := New("t", 1024, 2)
	c.Insert(0x100)
	c.Insert(0x200)
	c.Flush()
	if c.Peek(0x100) != nil || c.Peek(0x200) != nil {
		t.Error("blocks survive Flush")
	}
}

func TestCacheCapacityProperty(t *testing.T) {
	// Inserting any sequence never exceeds capacity, and a freshly
	// inserted block is always present immediately afterwards.
	f := func(addrs []uint16) bool {
		c := New("t", 8*mem.BlockSize, 2)
		for _, raw := range addrs {
			a := mem.Addr(raw)
			c.Insert(a)
			if c.Peek(a) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLoadLevels(t *testing.T) {
	h := NewHierarchy(2, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x1000)
	// Cold: memory.
	if res := h.Load(0, a); res.Level != LevelMemory {
		t.Fatalf("cold load level = %v", res.Level)
	}
	h.FillFromMemory(0, a, nil)
	// Now L1 hit.
	if res := h.Load(0, a); res.Level != LevelL1 {
		t.Errorf("second load level = %v", res.Level)
	}
	// Other core: LLC hit (block is in LLC, not in its L1).
	if res := h.Load(1, a); res.Level != LevelLLC {
		t.Errorf("cross-core load level = %v", res.Level)
	}
	// And now core 1 has it in L1 too.
	if res := h.Load(1, a); res.Level != LevelL1 {
		t.Errorf("core1 repeat load level = %v", res.Level)
	}
}

func TestHierarchyStoreInvalidatesSharers(t *testing.T) {
	h := NewHierarchy(2, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x2000)
	h.FillFromMemory(0, a, nil)
	h.Load(1, a) // both L1s share the block
	res := h.Store(0, a)
	if res.Level != LevelL1 {
		t.Fatalf("store level = %v", res.Level)
	}
	if h.L1(1).Peek(a) != nil {
		t.Error("core 1 L1 copy not invalidated by core 0 store")
	}
	if h.InvalidationsSent == 0 {
		t.Error("no invalidation recorded")
	}
	if !h.L1(0).Peek(a).Dirty() {
		t.Error("stored line not dirty")
	}
}

func TestHierarchyStoreMissWriteAllocate(t *testing.T) {
	h := NewHierarchy(1, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x3000)
	res := h.Store(0, a)
	if res.Level != LevelMemory {
		t.Fatalf("store-miss level = %v", res.Level)
	}
	h.FillFromMemory(0, a, nil)
	h.CompleteStore(0, a)
	l := h.L1(0).Peek(a)
	if l == nil || !l.Dirty() {
		t.Error("write-allocate did not leave a dirty L1 line")
	}
}

func TestHierarchyDirtyL1EvictionFoldsIntoLLC(t *testing.T) {
	// L1: 2 blocks, 1 way → same-set conflicts are easy.
	h := NewHierarchy(1, 2*mem.BlockSize, 1, 64*mem.BlockSize, 4, 0, 1<<16)
	a := mem.Addr(0x0000) // set 0
	b := mem.Addr(0x0080) // set 0 (L1 has 2 sets: bit 6 selects)
	h.FillFromMemory(0, a, nil)
	h.Store(0, a) // dirty in L1
	h.FillFromMemory(0, b, nil)
	// b displaced a from L1 (same set); LLC copy must now be dirty.
	if h.L1(0).Peek(a) != nil {
		t.Fatal("a still in L1; geometry assumption broken")
	}
	ll := h.LLC().Peek(a)
	if ll == nil || !ll.Dirty() {
		t.Error("dirtiness did not fold into inclusive LLC")
	}
}

func TestHierarchyLLCEvictionReportedAndL1Invalidated(t *testing.T) {
	// LLC: 4 blocks, 1 way, so 4 sets; same-set blocks are 4*64=256 apart.
	h := NewHierarchy(1, 16*mem.BlockSize, 2, 4*mem.BlockSize, 1, 0, 1<<16)
	a := mem.Addr(0x0000)
	b := mem.Addr(0x0100) // same LLC set as a
	h.FillFromMemory(0, a, nil)
	h.Store(0, a)
	res := h.FillFromMemory(0, b, nil)
	if !res.LLCEvicted {
		t.Fatal("no LLC victim reported")
	}
	if ev := res.LLCVictim; ev.Addr != a || !ev.Dirty {
		t.Errorf("evicted %+v, want dirty block a", ev)
	}
	if h.L1(0).Peek(a) != nil {
		t.Error("inclusive eviction left a stale L1 copy")
	}
	if h.Cached(a) {
		t.Error("block still reported cached after LLC eviction")
	}
}

func TestHierarchyDivergentPropagation(t *testing.T) {
	h := NewHierarchy(2, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x4000)
	stale := &[mem.BlockSize]byte{1, 2, 3}
	h.FillFromMemory(0, a, stale)
	if got := h.L1(0).Peek(a).Divergent(); got != stale {
		t.Error("L1 line lost divergent data")
	}
	// Another core loads it from LLC: divergence must follow.
	res := h.Load(1, a)
	if res.Level != LevelLLC || res.Line.Divergent() != stale {
		t.Error("divergent data did not propagate on LLC fill")
	}
}

func TestHierarchyCleanBlock(t *testing.T) {
	h := NewHierarchy(1, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x5000)
	h.FillFromMemory(0, a, nil)
	h.Store(0, a)
	h.CleanBlock(a)
	l1, llc := h.FindBlock(0, a)
	if l1 == nil || llc == nil {
		t.Fatal("CLWB-style clean must not invalidate")
	}
	if l1.Dirty() || llc.Dirty() {
		t.Error("CleanBlock left dirty bits")
	}
}

func TestHierarchyFlushAll(t *testing.T) {
	h := NewHierarchy(2, 1024, 2, 4096, 4, 0, 1<<16)
	h.FillFromMemory(0, 0x1000, nil)
	h.FillFromMemory(1, 0x2000, nil)
	h.FlushAll()
	if h.Cached(0x1000) || h.Cached(0x2000) {
		t.Error("blocks survive FlushAll")
	}
	if h.L1(0).Peek(0x1000) != nil {
		t.Error("L1 copy survives FlushAll")
	}
}

func TestHierarchyInclusionProperty(t *testing.T) {
	// Property: any block present in an L1 is present in the LLC.
	f := func(ops []uint16) bool {
		h := NewHierarchy(2, 4*mem.BlockSize, 2, 16*mem.BlockSize, 2, 0, 1<<16)
		for _, raw := range ops {
			core := int(raw>>15) & 1
			a := mem.Addr(raw&0x0FFF) &^ 63
			if raw&0x4000 != 0 {
				if h.Store(core, a).Level == LevelMemory {
					h.FillFromMemory(core, a, nil)
					h.CompleteStore(core, a)
				}
			} else {
				if h.Load(core, a).Level == LevelMemory {
					h.FillFromMemory(core, a, nil)
				}
			}
			// Check inclusion for the touched block only (cheap but
			// catches violations as they happen).
			if h.L1(core).Peek(a) != nil && h.LLC().Peek(a) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCacheAllocatesOnFirstFill(t *testing.T) {
	c := New("t", 256*16*mem.BlockSize, 16) // 256 sets: 4 chunks
	far := mem.Addr(255 * mem.BlockSize)    // last set of the last chunk
	if c.Lookup(far) != nil || c.Peek(far) != nil {
		t.Fatal("hit in empty cache")
	}
	if _, ok := c.Invalidate(far); ok {
		t.Fatal("invalidate hit in empty cache")
	}
	if n := c.AllocatedSets(); n != 0 {
		t.Fatalf("probes of an empty cache allocated %d sets", n)
	}
	c.Insert(far)
	c.Insert(far + mem.Addr(c.Sets())*mem.BlockSize) // same set, same chunk
	if n := c.AllocatedSets(); n != chunkSets {
		t.Fatalf("two fills of one set allocated %d sets, want %d", n, chunkSets)
	}
	c.Flush()
	if n := c.AllocatedSets(); n != 0 {
		t.Fatalf("Flush left %d sets allocated", n)
	}
	if c.Peek(far) != nil {
		t.Fatal("block survives Flush")
	}
	if l, _, evicted := c.Insert(far); l == nil || evicted || c.Peek(far) != l {
		t.Fatal("refill after Flush failed")
	}
}

func TestHierarchyWarmAccessAllocatesNothing(t *testing.T) {
	// 1-way 4-set LLC, so every fill of a new block evicts a line: the
	// victim travels by value, never through an allocated slice.
	h := NewHierarchy(1, 2*mem.BlockSize, 1, 4*mem.BlockSize, 1, 0, 1<<16)
	a, b := mem.Addr(0x0000), mem.Addr(0x0100) // same LLC set
	h.FillFromMemory(0, a, nil)
	h.FillFromMemory(0, b, nil)
	next := a
	allocs := testing.AllocsPerRun(100, func() {
		h.Store(0, next)
		if res := h.FillFromMemory(0, next, nil); !res.LLCEvicted {
			t.Fatal("fill of a conflicting block evicted nothing")
		}
		next ^= a ^ b
	})
	if allocs != 0 {
		t.Errorf("warm evicting fill allocates %.1f times per access", allocs)
	}
}

// flatCache is the reference model for the chunked Cache: one eagerly
// allocated flat array of tags, LRU timestamps and lines over every set,
// cleared in place by Flush. The chunked cache must be indistinguishable
// from it through the Cache API.
type flatCache struct {
	tags     []uint64
	uses     []uint64
	lines    []Line
	ways     int
	setMask  uint64
	setShift uint
	counter  uint64
	Stats    Stats
}

func newFlatCache(sizeBytes, ways int) *flatCache {
	nsets := sizeBytes / (ways * mem.BlockSize)
	c := &flatCache{
		tags:     make([]uint64, nsets*ways),
		uses:     make([]uint64, nsets*ways),
		lines:    make([]Line, nsets*ways),
		ways:     ways,
		setMask:  uint64(nsets - 1),
		setShift: 6,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

func (c *flatCache) setBase(a mem.Addr) uint64 {
	return (uint64(a) >> c.setShift & c.setMask) * uint64(c.ways)
}

func (c *flatCache) Lookup(a mem.Addr) *Line {
	blk := mem.BlockAlign(a)
	base := c.setBase(blk)
	for i, t := range c.tags[base : base+uint64(c.ways)] {
		if t == uint64(blk) {
			c.counter++
			c.uses[base+uint64(i)] = c.counter
			c.Stats.Hits++
			return &c.lines[base+uint64(i)]
		}
	}
	c.Stats.Misses++
	return nil
}

func (c *flatCache) Peek(a mem.Addr) *Line {
	blk := mem.BlockAlign(a)
	base := c.setBase(blk)
	for i, t := range c.tags[base : base+uint64(c.ways)] {
		if t == uint64(blk) {
			return &c.lines[base+uint64(i)]
		}
	}
	return nil
}

func (c *flatCache) Insert(a mem.Addr) (line *Line, ev Evicted, evicted bool) {
	blk := mem.BlockAlign(a)
	base := c.setBase(blk)
	invalid, lruIdx := -1, -1
	var lruUse uint64
	for i, t := range c.tags[base : base+uint64(c.ways)] {
		if t == uint64(blk) {
			c.counter++
			c.uses[base+uint64(i)] = c.counter
			return &c.lines[base+uint64(i)], Evicted{}, false
		}
		if t == invalidTag {
			if invalid < 0 {
				invalid = int(base) + i
			}
			continue
		}
		if u := c.uses[base+uint64(i)]; lruIdx < 0 || u < lruUse {
			lruIdx = int(base) + i
			lruUse = u
		}
	}
	victim := invalid
	if victim < 0 {
		victim = lruIdx
	}
	v := &c.lines[victim]
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
	c.tags[victim] = uint64(blk)
	c.uses[victim] = c.counter
	return v, ev, evicted
}

func (c *flatCache) Invalidate(a mem.Addr) (ev Evicted, ok bool) {
	blk := mem.BlockAlign(a)
	base := c.setBase(blk)
	for i, t := range c.tags[base : base+uint64(c.ways)] {
		if t == uint64(blk) {
			l := &c.lines[base+uint64(i)]
			ev = Evicted{Addr: l.addr, Dirty: l.dirty, Divergent: l.divergent}
			*l = Line{}
			c.tags[base+uint64(i)] = invalidTag
			return ev, true
		}
	}
	return Evicted{}, false
}

func (c *flatCache) Flush() {
	clear(c.lines)
	clear(c.uses)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
}

// TestCacheMatchesFlatReference drives the chunked cache and the flat
// reference model with the same seeded random operation sequences and
// requires identical results after every step: the same line (address,
// dirtiness, stale override), the same evictions in the same order and
// the same statistics. The address pool holds block 0, the last set of
// the last chunk, the same in-chunk set in every chunk, and more tags per
// set than there are ways, so LRU victims are exercised in every chunk.
func TestCacheMatchesFlatReference(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{4 * chunkSets, 16}, // multi-chunk, LLC associativity
		{8, 2},              // fewer sets than one chunk
	} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.sets, g.ways, seed), func(t *testing.T) {
				diffCache(t, g.sets, g.ways, seed, 4000)
			})
		}
	}
}

func diffCache(t *testing.T, sets, ways int, seed int64, steps int) {
	size := sets * ways * mem.BlockSize
	got, want := New("lazy", size, ways), newFlatCache(size, ways)
	rng := rand.New(rand.NewSource(seed))
	hotSets := []int{0, 1, chunkSets - 1, sets - 1, sets / 2}
	for c := 0; c*chunkSets < sets; c++ {
		hotSets = append(hotSets, (c*chunkSets+5)%sets) // one in-chunk set, every chunk
	}
	addr := func() mem.Addr {
		set := hotSets[rng.Intn(len(hotSets))]
		if rng.Intn(4) == 0 {
			set = rng.Intn(sets)
		}
		tag := uint64(rng.Intn(ways + ways/2 + 1))
		if rng.Intn(16) == 0 {
			tag += 1 << 30 // a distant alias of the same set
		}
		return mem.Addr((tag*uint64(sets)+uint64(set))*mem.BlockSize + uint64(rng.Intn(mem.BlockSize)))
	}
	sameLine := func(step int, op string, a mem.Addr, g, w *Line) {
		t.Helper()
		if (g == nil) != (w == nil) {
			t.Fatalf("step %d %s(%#x): line %v, reference %v", step, op, uint64(a), g != nil, w != nil)
		}
		if g != nil && (g.Addr() != w.Addr() || g.Dirty() != w.Dirty() || g.Divergent() != w.Divergent()) {
			t.Fatalf("step %d %s(%#x): line %+v, reference %+v", step, op, uint64(a), *g, *w)
		}
	}
	stale := make([]*[mem.BlockSize]byte, 8)
	for i := range stale {
		stale[i] = new([mem.BlockSize]byte)
	}
	for step := 0; step < steps; step++ {
		a := addr()
		switch op := rng.Intn(1000); {
		case op < 400:
			g, gev, gok := got.Insert(a)
			w, wev, wok := want.Insert(a)
			if rng.Intn(4) == 0 { // a stale fill carries an override
				d := stale[rng.Intn(len(stale))]
				g.divergent, w.divergent = d, d
			}
			sameLine(step, "Insert", a, g, w)
			if gok != wok || gev != wev {
				t.Fatalf("step %d Insert(%#x): evicted %v %+v, reference %v %+v", step, uint64(a), gok, gev, wok, wev)
			}
		case op < 650:
			sameLine(step, "Lookup", a, got.Lookup(a), want.Lookup(a))
		case op < 780:
			sameLine(step, "Peek", a, got.Peek(a), want.Peek(a))
		case op < 860:
			g, w := got.Peek(a), want.Peek(a)
			sameLine(step, "Peek", a, g, w)
			if g != nil {
				g.MarkDirty()
				w.MarkDirty()
			}
		case op < 998:
			gev, gok := got.Invalidate(a)
			wev, wok := want.Invalidate(a)
			if gok != wok || gev != wev {
				t.Fatalf("step %d Invalidate(%#x): %v %+v, reference %v %+v", step, uint64(a), gok, gev, wok, wev)
			}
		default: // rare, so sets fill up and evict between flushes
			got.Flush()
			want.Flush()
		}
		if got.Stats != want.Stats {
			t.Fatalf("step %d: stats %+v, reference %+v", step, got.Stats, want.Stats)
		}
	}
}
