package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBlockUtilities(t *testing.T) {
	cases := []struct {
		a       Addr
		aligned Addr
		off     int
	}{
		{0, 0, 0}, {1, 0, 1}, {63, 0, 63}, {64, 64, 0}, {65, 64, 1},
		{0x10000037, 0x10000000, 0x37},
	}
	for _, c := range cases {
		if got := BlockAlign(c.a); got != c.aligned {
			t.Errorf("BlockAlign(%#x) = %#x, want %#x", uint64(c.a), uint64(got), uint64(c.aligned))
		}
		if got := BlockOff(c.a); got != c.off {
			t.Errorf("BlockOff(%#x) = %d, want %d", uint64(c.a), got, c.off)
		}
	}
	if !SameBlock(100, 127) || SameBlock(127, 128) {
		t.Error("SameBlock misclassified")
	}
}

func TestBlockAlignProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		al := BlockAlign(a)
		return al <= a && a-al < BlockSize && BlockOff(al) == 0 &&
			al+Addr(BlockOff(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImageReadWrite(t *testing.T) {
	im := NewImage(0x1000, 4096)
	im.WriteU64(0x1000, 0xdeadbeefcafebabe)
	if got := im.ReadU64(0x1000); got != 0xdeadbeefcafebabe {
		t.Errorf("ReadU64 = %#x", got)
	}
	// Little-endian layout.
	var b [8]byte
	im.Read(0x1000, b[:])
	if b[0] != 0xbe || b[7] != 0xde {
		t.Errorf("unexpected byte order: % x", b)
	}
	// Bulk read/write round-trip.
	src := []byte("persistent memory speculation")
	im.Write(0x1100, src)
	dst := make([]byte, len(src))
	im.Read(0x1100, dst)
	if string(dst) != string(src) {
		t.Errorf("bulk round-trip = %q", dst)
	}
}

func TestImageU64RoundTripProperty(t *testing.T) {
	im := NewImage(0, 1<<16)
	f := func(off uint16, v uint64) bool {
		a := Addr(off) &^ 7 // keep 8-byte aligned and in range
		if !im.Contains(a, 8) {
			return true
		}
		im.WriteU64(a, v)
		return im.ReadU64(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImageBounds(t *testing.T) {
	im := NewImage(0x1000, 128)
	if im.Contains(0xFFF, 1) {
		t.Error("Contains below base")
	}
	if im.Contains(0x1000, 129) {
		t.Error("Contains past end")
	}
	if !im.Contains(0x1000+127, 1) {
		t.Error("last byte should be contained")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	im.ReadU64(0x1000 + 124)
}

func TestImageBlockOps(t *testing.T) {
	im := NewImage(0, 1024)
	var blk [BlockSize]byte
	for i := range blk {
		blk[i] = byte(i)
	}
	im.WriteBlock(130, blk)  // block base 128
	got := im.ReadBlock(190) // same block
	if got != blk {
		t.Error("block round-trip mismatch")
	}
	if im.ReadU64(128) == 0 {
		t.Error("block write did not land at block base")
	}
}

func TestImageClone(t *testing.T) {
	im := NewImage(0, 256)
	im.WriteU64(8, 42)
	c := im.Clone()
	im.WriteU64(8, 99)
	if c.ReadU64(8) != 42 {
		t.Error("clone shares storage with original")
	}
	if c.Base() != im.Base() || c.Size() != im.Size() {
		t.Error("clone geometry differs")
	}
}

func TestSpacePersistBlockAndDivergence(t *testing.T) {
	s := NewSpace(1 << 12)
	a := s.Base() + 64
	s.Arch.WriteU64(a, 7)
	if !s.Divergent(a) {
		t.Error("expected divergence after arch-only write")
	}
	s.PersistBlock(a)
	if s.Divergent(a) {
		t.Error("expected convergence after PersistBlock")
	}
	if s.PM.ReadU64(a) != 7 {
		t.Error("PersistBlock did not copy data")
	}
}

func TestSpacePersistBytesOrdering(t *testing.T) {
	// A late-arriving stale payload must clobber a newer one: this is the
	// store-misspeculation "missing update" semantics.
	s := NewSpace(1 << 12)
	a := s.Base()
	new8 := make([]byte, 8)
	old8 := make([]byte, 8)
	new8[0], old8[0] = 2, 1
	s.PersistBytes(a, new8) // thread 2's newer value arrives first
	s.PersistBytes(a, old8) // thread 1's older value arrives late
	if got := s.PM.ReadU64(a); got != 1 {
		t.Errorf("PM value = %d, want 1 (missing update reproduced)", got)
	}
}

func TestHeapAllocBasics(t *testing.T) {
	s := NewSpace(1 << 16)
	h := NewHeap(s, 1024)
	a := h.Alloc(10) // rounds to 16
	b := h.Alloc(10)
	if a == b {
		t.Error("distinct allocations share an address")
	}
	if a < s.Base()+1024 {
		t.Error("allocation inside reserved prefix")
	}
	if a%8 != 0 || b%8 != 0 {
		t.Error("allocations not 8-byte aligned")
	}
	h.Free(a, 10)
	c := h.Alloc(10)
	if c != a {
		t.Errorf("free-list reuse failed: got %#x, want %#x", uint64(c), uint64(a))
	}
}

func TestHeapAllocBlockAlignment(t *testing.T) {
	s := NewSpace(1 << 16)
	h := NewHeap(s, 0)
	h.Alloc(8) // misalign the bump pointer
	a := h.AllocBlock(64)
	if BlockOff(a) != 0 {
		t.Errorf("AllocBlock returned unaligned %#x", uint64(a))
	}
	b := h.AllocBlock(100) // rounds to 128
	if BlockOff(b) != 0 || b < a+64 {
		t.Errorf("second AllocBlock = %#x", uint64(b))
	}
	h.FreeBlock(a, 64)
	if c := h.AllocBlock(64); c != a {
		t.Error("aligned free list not reused")
	}
}

func TestHeapAccounting(t *testing.T) {
	s := NewSpace(1 << 16)
	h := NewHeap(s, 0)
	a := h.Alloc(24)
	if h.Allocated != 24 {
		t.Errorf("Allocated = %d, want 24", h.Allocated)
	}
	h.Free(a, 24)
	if h.Allocated != 0 {
		t.Errorf("Allocated = %d after free, want 0", h.Allocated)
	}
	if len(h.FreeListSizes()) != 1 {
		t.Error("expected one populated free-list class")
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	s := NewSpace(256)
	h := NewHeap(s, 0)
	defer func() {
		if recover() == nil {
			t.Error("exhaustion did not panic")
		}
	}()
	h.Alloc(512)
}

func TestHeapAllocFreeProperty(t *testing.T) {
	s := NewSpace(1 << 20)
	h := NewHeap(s, 0)
	live := make(map[Addr]uint64)
	f := func(sizes []uint16) bool {
		for _, raw := range sizes {
			sz := uint64(raw%512) + 1
			a := h.Alloc(sz)
			if _, dup := live[a]; dup {
				return false // overlap with a live allocation
			}
			live[a] = sz
		}
		for a, sz := range live {
			h.Free(a, sz)
			delete(live, a)
		}
		return h.Allocated == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBlockSliceAliasesImage(t *testing.T) {
	im := NewImage(0, 1024)
	im.WriteU64(128, 0x1122334455667788)
	s := im.BlockSlice(130) // any address inside the block
	if got := leU64t(s[:8]); got != 0x1122334455667788 {
		t.Fatalf("BlockSlice contents = %#x", got)
	}
	s[0] = 0xff // writes through to the image
	if got := im.ReadU64(128); got&0xff != 0xff {
		t.Errorf("BlockSlice does not alias image: %#x", got)
	}
	if len(s) != BlockSize || cap(s) != BlockSize {
		t.Errorf("len/cap = %d/%d, want %d", len(s), cap(s), BlockSize)
	}
}

func leU64t(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestStaleBlock(t *testing.T) {
	s := NewSpace(4096)
	a := s.Base() + 256
	if blk := s.StaleBlock(a); blk != nil {
		t.Fatal("converged block reported stale")
	}
	s.Arch.WriteU64(a, 42)
	blk := s.StaleBlock(a)
	if blk == nil {
		t.Fatal("divergent block not reported stale")
	}
	// The copy holds the persisted (old) bytes and is detached from both
	// images.
	if got := leU64t(blk[:8]); got != 0 {
		t.Errorf("stale copy = %d, want persisted 0", got)
	}
	blk[0] = 0xee
	if s.PM.ReadU64(a) != 0 || s.Arch.ReadU64(a) != 42 {
		t.Error("StaleBlock copy aliases an image")
	}
}

func TestReleasePanicsOnUse(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.Base() + 4096
	s.Arch.WriteU64(a, 7)
	s.PersistBlock(a)
	s.Release()
	s.Release() // a second release is harmless
	for name, use := range map[string]func(){
		"read released arch":  func() { s.Arch.ReadU64(a) },
		"write released arch": func() { s.Arch.WriteU64(a, 9) },
		"read released pm":    func() { s.PM.BlockSlice(a) },
		"persist":             func() { s.PersistBlock(a) },
	} {
		if !panics(use) {
			t.Errorf("%s: did not panic", name)
		}
	}
}

func TestImageReleaseIdempotent(t *testing.T) {
	size := uint64(4 * pageSize)
	im := NewImage(DefaultBase, size)
	im.WriteU64(DefaultBase, 7)
	im.Release()
	im.Release() // a second release is a no-op
	if im.Size() != 0 || im.Contains(DefaultBase, 8) {
		t.Fatal("released image still covers addresses")
	}
	// Images created after a double release own their pages.
	a := NewImage(DefaultBase, size)
	b := NewImage(DefaultBase, size)
	a.WriteU64(DefaultBase, 1)
	if got := b.ReadU64(DefaultBase); got != 0 {
		t.Fatalf("images allocated after a double release share a page (read %d)", got)
	}
	if !panics(func() { im.WriteU64(DefaultBase, 9) }) {
		t.Fatal("write through a released image did not panic")
	}
}

func TestSpaceReleaseIdempotent(t *testing.T) {
	s := NewSpace(1 << 20)
	s.Release()
	s.Release() // must not fail on the already-released images
	if s.Size() != 0 || s.Contains(s.Base(), 1) {
		t.Fatal("released space still covers addresses")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestImageMatchesFlatModel drives random accesses, many straddling
// page boundaries, against a Space and checks every result against a
// flat byte-slice model of each image.
func TestImageMatchesFlatModel(t *testing.T) {
	const size = 4*pageSize + 3*BlockSize // last page partial
	rng := rand.New(rand.NewPCG(1, 2))
	s := NewSpace(size)
	model := map[*Image][]byte{s.Arch: make([]byte, size), s.PM: make([]byte, size)}
	// addr picks an n-byte access, half the time straddling a page edge.
	addr := func(n int) (Addr, int) {
		var off int
		if rng.IntN(2) == 0 {
			edge := pageSize * (1 + rng.IntN(size/pageSize))
			off = edge - 1 - rng.IntN(n)
		} else {
			off = rng.IntN(size - n + 1)
		}
		off = max(0, min(off, size-n))
		return s.Base() + Addr(off), off
	}
	pick := func() *Image {
		if rng.IntN(2) == 0 {
			return s.Arch
		}
		return s.PM
	}
	for step := 0; step < 20000; step++ {
		im := pick()
		ref := model[im]
		switch rng.IntN(9) {
		case 0: // Write
			p := make([]byte, 1+rng.IntN(2*BlockSize))
			for i := range p {
				p[i] = byte(rng.Uint32())
			}
			a, off := addr(len(p))
			im.Write(a, p)
			copy(ref[off:], p)
		case 1: // WriteU64
			a, off := addr(8)
			v := rng.Uint64()
			im.WriteU64(a, v)
			binary.LittleEndian.PutUint64(ref[off:], v)
		case 2: // Read
			got := make([]byte, 1+rng.IntN(pageSize+BlockSize))
			a, off := addr(len(got))
			im.Read(a, got)
			if !bytes.Equal(got, ref[off:off+len(got)]) {
				t.Fatalf("step %d: Read(%#x, %d) mismatch", step, uint64(a), len(got))
			}
		case 3: // ReadU64
			a, off := addr(8)
			if got, want := im.ReadU64(a), binary.LittleEndian.Uint64(ref[off:]); got != want {
				t.Fatalf("step %d: ReadU64(%#x) = %#x, want %#x", step, uint64(a), got, want)
			}
		case 4: // CopyBlockFrom: the other image into im
			src := s.Arch
			if im == s.Arch {
				src = s.PM
			}
			a, off := addr(1)
			im.CopyBlockFrom(src, a)
			b := off &^ (BlockSize - 1)
			copy(ref[b:b+BlockSize], model[src][b:b+BlockSize])
		case 5: // BlockSlice
			a, off := addr(1)
			b := off &^ (BlockSize - 1)
			if !bytes.Equal(im.BlockSlice(a), ref[b:b+BlockSize]) {
				t.Fatalf("step %d: BlockSlice(%#x) mismatch", step, uint64(a))
			}
		case 6: // Divergent and StaleBlock
			a, off := addr(1)
			b := off &^ (BlockSize - 1)
			arch, pm := model[s.Arch][b:b+BlockSize], model[s.PM][b:b+BlockSize]
			div := !bytes.Equal(arch, pm)
			if s.Divergent(a) != div {
				t.Fatalf("step %d: Divergent(%#x) = %v, want %v", step, uint64(a), !div, div)
			}
			stale := s.StaleBlock(a)
			if (stale != nil) != div || (stale != nil && !bytes.Equal(stale[:], pm)) {
				t.Fatalf("step %d: StaleBlock(%#x) wrong", step, uint64(a))
			}
		case 7: // Clone, then write to the clone: the source must not move
			c := im.Clone()
			a, _ := addr(8)
			c.WriteU64(a, rng.Uint64())
			checkImage(t, step, im, ref)
			if rng.IntN(2) == 0 { // adopt the clone, as SyncPersistedToArch does
				cref := make([]byte, size)
				c.Read(c.Base(), cref)
				checkImage(t, step, c, cref)
				delete(model, s.PM)
				s.PM = c
				model[c] = cref
			}
		case 8: // spot-check whole images
			checkImage(t, step, im, ref)
		}
	}
	if zeroPage != (page{}) {
		t.Fatal("the shared zero page was written")
	}
}

func checkImage(t *testing.T, step int, im *Image, ref []byte) {
	t.Helper()
	got := make([]byte, len(ref))
	im.Read(im.Base(), got)
	if !bytes.Equal(got, ref) {
		t.Fatalf("step %d: image diverged from model", step)
	}
}

func TestCopyIntoAbsentPageKeepsZeroPage(t *testing.T) {
	src := NewImage(0, 4*pageSize)
	dst := NewImage(0, 4*pageSize)
	src.WriteU64(pageSize+8, 0xfeed)
	dst.CopyBlockFrom(src, pageSize)   // present page into an absent one
	dst.CopyBlockFrom(src, 2*pageSize) // absent page into an absent one
	if zeroPage != (page{}) {
		t.Fatal("CopyBlockFrom wrote through the shared zero page")
	}
	if dst.ReadU64(pageSize+8) != 0xfeed || dst.ReadU64(3*pageSize) != 0 {
		t.Fatal("CopyBlockFrom copied the wrong bytes")
	}
}

func TestBlockTable(t *testing.T) {
	tb := NewBlockTable[uint64](DefaultBase, 1<<30)
	far := DefaultBase + 1<<29 + 5*BlockSize + 3 // any byte of the block
	if tb.Find(far) != nil || len(tb.dir.pages) != 0 {
		t.Fatal("Find on an empty table found an entry or allocated")
	}
	*tb.Ptr(far) = 42
	if e := tb.Find(BlockAlign(far)); e == nil || *e != 42 {
		t.Fatal("Find after Ptr does not see the entry")
	}
	if *tb.Find(BlockAlign(far) + BlockSize) != 0 {
		t.Fatal("neighbouring block not zero")
	}
	tb.Reset()
	if tb.Find(far) != nil {
		t.Fatal("entry survived Reset")
	}
}
