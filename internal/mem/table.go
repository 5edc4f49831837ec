package mem

// pageDir is a page directory with holes: entry i is nil until page i
// is first allocated. The directory grows only to the highest page
// allocated, so it too costs memory in proportion to the footprint.
type pageDir[P any] struct {
	pages []*P
}

// get returns page i, or nil if it was never allocated.
func (d *pageDir[P]) get(i uint64) *P {
	if i < uint64(len(d.pages)) {
		return d.pages[i]
	}
	return nil
}

// alloc allocates page i, zeroed. Callers look the page up with get
// first; alloc stays out of line so those lookups inline.
//
//go:noinline
func (d *pageDir[P]) alloc(i uint64) *P {
	if i >= uint64(len(d.pages)) {
		d.pages = append(d.pages, make([]*P, i+1-uint64(len(d.pages)))...)
	}
	p := new(P)
	d.pages[i] = p
	return p
}

// clone returns a deep copy whose pages share one slab.
func (d *pageDir[P]) clone() pageDir[P] {
	n := 0
	for _, p := range d.pages {
		if p != nil {
			n++
		}
	}
	slab := make([]P, n)
	c := make([]*P, len(d.pages))
	for i, p := range d.pages {
		if p != nil {
			slab[0] = *p
			c[i] = &slab[0]
			slab = slab[1:]
		}
	}
	return pageDir[P]{pages: c}
}

// tableShift sets the number of entries on one BlockTable page.
const (
	tableShift = 9
	tableMask  = 1<<tableShift - 1
)

// BlockTable is a sparse per-block side table over a PM region: one T
// per cache block, zero until set. Like Image it allocates pages only
// for the blocks that are set (through Ptr), so owners can keep
// per-block state for the whole region without paying for it.
type BlockTable[T any] struct {
	base Addr
	size uint64
	dir  pageDir[[1 << tableShift]T]
}

// NewBlockTable creates a table covering the blocks of [base, base+size).
func NewBlockTable[T any](base Addr, size uint64) *BlockTable[T] {
	return &BlockTable[T]{base: base, size: size}
}

// index returns the entry index of a's block, panicking if a lies
// outside the region (an address below base wraps past size).
func (t *BlockTable[T]) index(a Addr) uint64 {
	off := uint64(a - t.base)
	if off >= t.size {
		panic(outOfRegion{a: a, n: 1, base: t.base, size: t.size})
	}
	return off / BlockSize
}

// Find returns a pointer to the entry of a's block, or nil if its page
// was never allocated (the entry is then zero). It never allocates, so
// reading or clearing an entry costs no page.
func (t *BlockTable[T]) Find(a Addr) *T {
	// The directory is read inline, not through dir.get, to keep Find
	// within the inlining budget on the per-access paths.
	i := t.index(a)
	if pi := i >> tableShift; pi < uint64(len(t.dir.pages)) && t.dir.pages[pi] != nil {
		return &t.dir.pages[pi][i&tableMask]
	}
	return nil
}

// Ptr returns a pointer to the entry of a's block, allocating its page.
// The pointer stays valid until Reset.
func (t *BlockTable[T]) Ptr(a Addr) *T {
	i := t.index(a)
	p := t.dir.get(i >> tableShift)
	if p == nil {
		p = t.dir.alloc(i >> tableShift)
	}
	return &p[i&tableMask]
}

// Reset drops every page: all entries read as zero again.
func (t *BlockTable[T]) Reset() { t.dir = pageDir[[1 << tableShift]T]{} }
