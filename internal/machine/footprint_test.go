package machine

import (
	"runtime"
	"testing"

	"pmemspec/internal/mem"
)

// TestConstructionCostIndependentOfRegion: building a machine must cost
// the same whether its PM region is 64 MB or 1 GB — per-block state is
// paid for by the blocks a program touches, not by the region size.
func TestConstructionCostIndependentOfRegion(t *testing.T) {
	allocated := func(cfg Config) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := mustNew(t, cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, d := range AllDesigns {
		small, large := DefaultConfig(d, 2), DefaultConfig(d, 2)
		small.MemBytes, large.MemBytes = 64<<20, 1<<30
		a, b := allocated(small), allocated(large)
		if diff := int64(b) - int64(a); diff <= -1<<20 || diff >= 1<<20 {
			t.Errorf("%v: machine.New allocates %d B at 64 MB but %d B at 1 GB", d, a, b)
		}
	}
}

// TestOutOfRegionPanics: every per-block structure still rejects an
// address outside the PM region, just past either end.
func TestOutOfRegionPanics(t *testing.T) {
	cfg := smallConfig(HOPS, 2)
	last := mem.DefaultBase + mem.Addr(cfg.MemBytes) - mem.BlockSize
	m := mustNew(t, cfg)
	h, q := m.Hierarchy(), m.wpqs[0]
	for _, c := range []struct {
		name   string
		access func(a mem.Addr)
	}{
		{"Image", func(a mem.Addr) { m.Space().Arch.WriteU64(a, 1) }},
		{"Hierarchy sharer lookup", func(a mem.Addr) { h.FindBlock(0, a) }},
		{"Hierarchy sharer update", func(a mem.Addr) { h.FillFromMemory(0, a, nil) }},
		{"WPQ.Accept", func(a mem.Addr) { q.Accept(1, a) }},
		{"hopsTouch", func(a mem.Addr) { m.hopsTouch(0, a, 1, 2, true) }},
	} {
		if panics(func() { c.access(last) }) {
			t.Errorf("%s: last in-region block panicked", c.name)
		}
		for _, a := range []mem.Addr{mem.DefaultBase - mem.BlockSize, last + mem.BlockSize} {
			if !panics(func() { c.access(a) }) {
				t.Errorf("%s: address %#x outside the region did not panic", c.name, uint64(a))
			}
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
