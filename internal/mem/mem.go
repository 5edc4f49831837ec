// Package mem models the simulated physical memory: a persistent-memory
// region with two byte images.
//
// The architectural image holds the coherent view of memory — the value
// of the most recent store to each location in the global memory order.
// The persisted image holds what has actually reached the PM controller,
// i.e. the ADR persistent domain; it is the state that survives a power
// failure. The two images diverge exactly when persists are still in
// flight (or were dropped, as with PMEM-Spec's silent dirty evictions),
// and that divergence is what makes stale reads and crash-consistency
// experiments meaningful.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// BlockSize is the cache-block size in bytes (Table 3: 64 B blocks).
const BlockSize = 64

// Addr is a simulated physical address.
type Addr uint64

// BlockAlign rounds a down to its cache-block base.
func BlockAlign(a Addr) Addr { return a &^ (BlockSize - 1) }

// BlockOff returns a's offset within its cache block.
func BlockOff(a Addr) int { return int(a & (BlockSize - 1)) }

// SameBlock reports whether a and b fall in the same cache block.
func SameBlock(a, b Addr) bool { return BlockAlign(a) == BlockAlign(b) }

// Image is a sparse byte image of the PM region: a directory of
// fixed-size pages in which a page exists only once something was
// written to it. An absent page reads as zeros, so an image costs memory
// in proportion to the bytes a program touches, not to the region it
// covers.
type Image struct {
	base Addr
	size uint64
	dir  pageDir[page]
}

// pageSize is the image page size: a multiple of BlockSize, so a cache
// block never straddles two pages.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// zeroPage backs every read of an absent page. Nothing writes to it:
// writes allocate the page first.
var zeroPage page

// NewImage creates a zeroed image covering [base, base+size). base must
// be block-aligned.
func NewImage(base Addr, size uint64) *Image {
	if BlockOff(base) != 0 {
		panic(fmt.Sprintf("mem: image base %#x not block-aligned", uint64(base)))
	}
	return &Image{base: base, size: size}
}

// Release drops the image's pages. The image must not be used
// afterwards: it then covers no addresses, so every access panics.
// Releasing twice is harmless.
func (im *Image) Release() { *im = Image{} }

// Base returns the first address covered by the image.
func (im *Image) Base() Addr { return im.base }

// Size returns the number of bytes covered.
func (im *Image) Size() uint64 { return im.size }

// Contains reports whether [a, a+n) lies inside the image.
func (im *Image) Contains(a Addr, n int) bool {
	if n < 0 || a < im.base {
		return false
	}
	off := uint64(a - im.base)
	return off <= im.size && uint64(n) <= im.size-off
}

// offset returns a's offset into the image, panicking unless [a, a+n)
// lies inside it.
func (im *Image) offset(a Addr, n int) uint64 {
	if !im.Contains(a, n) {
		panic(outOfRegion{a: a, n: n, base: im.base, size: im.size})
	}
	return uint64(a - im.base)
}

// outOfRegion is the panic value of an access [a, a+n) outside the
// region [base, base+size). It formats only when reported, which keeps
// the bounds checks on the hot paths small enough to inline.
type outOfRegion struct {
	a, base Addr
	n       int
	size    uint64
}

func (e outOfRegion) Error() string {
	return fmt.Sprintf("mem: access [%#x,+%d) outside region [%#x,+%d)", uint64(e.a), e.n, uint64(e.base), e.size)
}

// readPage returns the page holding offset off, or the zero page.
func (im *Image) readPage(off uint64) *page {
	if p := im.dir.get(off >> pageShift); p != nil {
		return p
	}
	return &zeroPage
}

// writePage returns the page holding offset off, allocating it on first
// write.
func (im *Image) writePage(off uint64) *page {
	i := off >> pageShift
	if i < uint64(len(im.dir.pages)) && im.dir.pages[i] != nil {
		return im.dir.pages[i]
	}
	return im.dir.alloc(i)
}

// ReadU64 reads a little-endian uint64 at a.
func (im *Image) ReadU64(a Addr) uint64 {
	off := im.offset(a, 8)
	if po := off & pageMask; po <= pageSize-8 {
		return binary.LittleEndian.Uint64(im.readPage(off)[po:])
	}
	var b [8]byte
	im.Read(a, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64 at a.
func (im *Image) WriteU64(a Addr, v uint64) {
	off := im.offset(a, 8)
	if po := off & pageMask; po <= pageSize-8 {
		binary.LittleEndian.PutUint64(im.writePage(off)[po:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	im.Write(a, b[:])
}

// Read copies len(p) bytes starting at a into p. Like Write it takes a
// single-page fast path: the simulator's accesses are at most a block
// and size-aligned, so they never straddle pages.
func (im *Image) Read(a Addr, p []byte) {
	off := im.offset(a, len(p))
	if po := off & pageMask; po+uint64(len(p)) <= pageSize {
		copy(p, im.readPage(off)[po:])
		return
	}
	for len(p) > 0 {
		n := copy(p, im.readPage(off)[off&pageMask:])
		p, off = p[n:], off+uint64(n)
	}
}

// Write copies p into the image starting at a.
func (im *Image) Write(a Addr, p []byte) {
	off := im.offset(a, len(p))
	if po := off & pageMask; po+uint64(len(p)) <= pageSize {
		copy(im.writePage(off)[po:], p)
		return
	}
	for len(p) > 0 {
		n := copy(im.writePage(off)[off&pageMask:], p)
		p, off = p[n:], off+uint64(n)
	}
}

// ReadBlock returns a copy of the cache block containing a.
func (im *Image) ReadBlock(a Addr) [BlockSize]byte {
	return [BlockSize]byte(im.BlockSlice(a))
}

// WriteBlock overwrites the cache block containing a.
func (im *Image) WriteBlock(a Addr, b [BlockSize]byte) {
	copy(im.writeBlock(a), b[:])
}

// Clone returns a deep copy of the image (for crash snapshots). Only
// the pages that exist are copied, into one slab.
func (im *Image) Clone() *Image {
	return &Image{base: im.base, size: im.size, dir: im.dir.clone()}
}

// BlockSlice returns the image's bytes for the cache block containing
// a, aliasing the image storage (no copy). It is read-only: a block on
// an absent page aliases the shared zero page, so mutations have to go
// through Write/WriteU64/WriteBlock. Callers must not retain the slice
// across image writes. It exists for the simulator's per-access hot
// paths, where the block-sized value copies of ReadBlock/WriteBlock
// dominated.
func (im *Image) BlockSlice(a Addr) []byte {
	off := im.offset(BlockAlign(a), BlockSize)
	po := off & pageMask
	return im.readPage(off)[po : po+BlockSize : po+BlockSize]
}

// writeBlock is BlockSlice for writing: it allocates the block's page.
func (im *Image) writeBlock(a Addr) []byte {
	off := im.offset(BlockAlign(a), BlockSize)
	po := off & pageMask
	return im.writePage(off)[po : po+BlockSize : po+BlockSize]
}

// CopyBlockFrom copies the block containing a from src into im. The two
// images must cover the block.
func (im *Image) CopyBlockFrom(src *Image, a Addr) {
	copy(im.writeBlock(a), src.BlockSlice(a))
}

// Space is the simulated PM region: an architectural image plus the
// persisted (ADR-domain) image, initially identical (both zero).
type Space struct {
	// Arch is the coherent, program-order view of memory.
	Arch *Image
	// PM is the persisted view: what survives a power failure.
	PM *Image
}

// DefaultBase is the physical base address of the simulated PM region.
const DefaultBase = Addr(0x1000_0000)

// NewSpace creates a PM region of the given size at DefaultBase.
func NewSpace(size uint64) *Space {
	return &Space{
		Arch: NewImage(DefaultBase, size),
		PM:   NewImage(DefaultBase, size),
	}
}

// Release drops both images' pages; see Image.Release.
func (s *Space) Release() {
	s.Arch.Release()
	s.PM.Release()
}

// Base returns the first PM address.
func (s *Space) Base() Addr { return s.Arch.Base() }

// Size returns the PM region size in bytes.
func (s *Space) Size() uint64 { return s.Arch.Size() }

// Contains reports whether [a, a+n) is a valid PM range.
func (s *Space) Contains(a Addr, n int) bool { return s.Arch.Contains(a, n) }

// PersistBlock copies the architectural contents of a's block into the
// persisted image. Writeback-based designs (IntelX86 CLWB, HOPS/DPO
// persist-buffer drains, dirty LLC writebacks that update PM) use this:
// by the time the line reaches the controller it carries the coherent
// data.
func (s *Space) PersistBlock(a Addr) {
	s.PM.CopyBlockFrom(s.Arch, a)
}

// PersistBytes applies an individual store's payload to the persisted
// image. The PMEM-Spec persist-path uses this: each message carries the
// bytes of one store, applied in arrival order at the controller — which
// is how a late-arriving racing store can clobber a newer value (the
// store-misspeculation "missing update").
func (s *Space) PersistBytes(a Addr, p []byte) {
	s.PM.Write(a, p)
}

// Divergent reports whether the architectural and persisted contents of
// a's block differ (useful in tests and crash diagnostics).
func (s *Space) Divergent(a Addr) bool {
	return !bytes.Equal(s.Arch.BlockSlice(a), s.PM.BlockSlice(a))
}

// StaleBlock returns nil when a's block is identical in both images, or
// a fresh copy of the persisted block when they diverge — the stale data
// a speculative PM fetch delivers while persists for the block are still
// in flight. The copy is taken only on divergence, keeping the common
// (converged) fetch path allocation-free.
func (s *Space) StaleBlock(a Addr) *[BlockSize]byte {
	pm := s.PM.BlockSlice(a)
	if bytes.Equal(pm, s.Arch.BlockSlice(a)) {
		return nil
	}
	blk := new([BlockSize]byte)
	copy(blk[:], pm)
	return blk
}
