package mem

import "testing"

// Block-op microbenchmarks: these paths run on every PM fetch, persist
// and dirty writeback, so they must stay copy-minimal and allocation-free
// in the converged (non-stale) case.

func BenchmarkCopyBlockFrom(b *testing.B) {
	s := NewSpace(1 << 20)
	a := s.Base() + 4096
	s.Arch.WriteU64(a, 0xdeadbeef)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PM.CopyBlockFrom(s.Arch, a)
	}
}

func BenchmarkDivergentConverged(b *testing.B) {
	s := NewSpace(1 << 20)
	a := s.Base() + 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Divergent(a) {
			b.Fatal("converged block reported divergent")
		}
	}
}

func BenchmarkStaleBlockConverged(b *testing.B) {
	s := NewSpace(1 << 20)
	a := s.Base() + 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.StaleBlock(a) != nil {
			b.Fatal("converged block reported stale")
		}
	}
}

func BenchmarkStaleBlockDivergent(b *testing.B) {
	s := NewSpace(1 << 20)
	a := s.Base() + 4096
	s.Arch.WriteU64(a, 0xdeadbeef)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.StaleBlock(a) == nil {
			b.Fatal("divergent block reported converged")
		}
	}
}

// Store-path microbenchmarks: 8-byte writes and reads spread over a
// 4 MB working set, as the simulator's per-store Arch/PM updates are.
func BenchmarkWrite8(b *testing.B) {
	s := NewSpace(64 << 20)
	p := make([]byte, 8)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		s.PM.Write(s.Base()+Addr(i*4168)%(4<<20)&^7, p)
	}
}

func BenchmarkReadU64(b *testing.B) {
	s := NewSpace(64 << 20)
	for a := s.Base(); a < s.Base()+4<<20; a += 4096 {
		s.Arch.WriteU64(a, 1)
	}
	b.ReportAllocs()
	var sum uint64
	for i := 0; b.Loop(); i++ {
		sum += s.Arch.ReadU64(s.Base() + Addr(i*4168)%(4<<20)&^7)
	}
	sink = sum
}

var sink uint64
