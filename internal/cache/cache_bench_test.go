package cache

import (
	"testing"

	"pmemspec/internal/mem"
)

// Cache microbenchmarks on the Table 3 geometry (64 KB 4-way L1, 16 MB
// 16-way LLC). Every probe of the simulator goes through these paths, so
// a warm hit must stay allocation-free; each working set is filled before
// the timed loop, so chunk allocation is not part of the measurement.
//
//	go test -run '^$' -bench . ./internal/cache

const (
	benchL1Bytes, benchL1Ways   = 64 << 10, 4
	benchLLCBytes, benchLLCWays = 16 << 20, 16
	benchRegion                 = 256 << 20
)

// benchSets are the working sets: resident in the L1, resident in the LLC
// but four times the L1, and spread over a region sixteen times the LLC,
// so nearly every access misses and every fill evicts.
var benchSets = []struct {
	name string
	span uint64
}{
	{"l1", benchL1Bytes / 2},
	{"llc", benchL1Bytes * 4},
	{"far", benchRegion},
}

// benchAddrs is a cheap xorshift stream of block addresses within span
// (a power of two), so generating an address costs the same in every
// working set.
type benchAddrs struct{ x, mask uint64 }

func newBenchAddrs(span uint64) *benchAddrs {
	return &benchAddrs{x: 0x9E3779B97F4A7C15, mask: span/mem.BlockSize - 1}
}

func (g *benchAddrs) next() mem.Addr {
	g.x ^= g.x << 13
	g.x ^= g.x >> 7
	g.x ^= g.x << 17
	return mem.Addr(g.x & g.mask * mem.BlockSize)
}

// warmCache fills every block of span (twice the capacity at most), so
// the l1 and llc sets are resident and the far set finds a full cache.
func warmCache(c *Cache, span uint64) {
	limit := min(span, 2*uint64(c.Sets()*c.Ways()*mem.BlockSize))
	for a := uint64(0); a < limit; a += mem.BlockSize {
		c.Insert(mem.Addr(a))
	}
}

// benchCache returns a cache of the level that span is resident in: the
// L1 geometry for the l1 set, the LLC geometry otherwise.
func benchCache(span uint64) *Cache {
	if span <= benchL1Bytes {
		return New("L1", benchL1Bytes, benchL1Ways)
	}
	return New("LLC", benchLLCBytes, benchLLCWays)
}

func BenchmarkLookup(b *testing.B) {
	for _, ws := range benchSets {
		b.Run(ws.name, func(b *testing.B) {
			c := benchCache(ws.span)
			warmCache(c, ws.span)
			g := newBenchAddrs(ws.span)
			b.ReportAllocs()
			for b.Loop() {
				c.Lookup(g.next())
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	for _, ws := range benchSets {
		b.Run(ws.name, func(b *testing.B) {
			c := benchCache(ws.span)
			warmCache(c, ws.span)
			g := newBenchAddrs(ws.span)
			b.ReportAllocs()
			for b.Loop() {
				c.Insert(g.next())
			}
		})
	}
}

func BenchmarkHierarchyLoad(b *testing.B)  { benchmarkHierarchy(b, false) }
func BenchmarkHierarchyStore(b *testing.B) { benchmarkHierarchy(b, true) }

// benchmarkHierarchy times one core's loads or write-allocate stores,
// completing each miss with a fill from memory as the machine does.
func benchmarkHierarchy(b *testing.B, store bool) {
	for _, ws := range benchSets {
		b.Run(ws.name, func(b *testing.B) {
			h := NewHierarchy(1, benchL1Bytes, benchL1Ways, benchLLCBytes, benchLLCWays, 0, benchRegion)
			limit := min(ws.span, 2*benchLLCBytes)
			for a := mem.Addr(0); uint64(a) < limit; a += mem.BlockSize {
				if h.Load(0, a).Level == LevelMemory {
					h.FillFromMemory(0, a, nil)
				}
			}
			g := newBenchAddrs(ws.span)
			b.ReportAllocs()
			for b.Loop() {
				a := g.next()
				if !store {
					if h.Load(0, a).Level == LevelMemory {
						h.FillFromMemory(0, a, nil)
					}
				} else if h.Store(0, a).Level == LevelMemory {
					h.FillFromMemory(0, a, nil)
					h.CompleteStore(0, a)
				}
			}
		})
	}
}
