package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
)

func genCfg(threads int) GenConfig {
	return GenConfig{
		Threads:      threads,
		OpsPerThread: 300,
		Blocks:       64,
		Locks:        3,
		HeapBase:     mem.DefaultBase + 1<<20,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, genCfg(4))
	b := Generate(42, genCfg(4))
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different programs")
	}
	c := Generate(43, genCfg(4))
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical programs")
	}
}

func TestGeneratedProgramsValidate(t *testing.T) {
	cfg := machine.DefaultConfig(machine.PMEMSpec, 4)
	cfg.MemBytes = 16 << 20
	for seed := int64(1); seed <= 10; seed++ {
		p := Generate(seed, genCfg(4))
		if err := p.Validate(cfg); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cfg := machine.DefaultConfig(machine.PMEMSpec, 2)
	cfg.MemBytes = 16 << 20
	cases := []struct {
		name string
		p    *Program
	}{
		{"too many threads", &Program{Threads: [][]Op{{}, {}, {}}}},
		{"address outside PM", &Program{Threads: [][]Op{{{Kind: OpStore, Addr: 0x10}}}}},
		{"lock out of range", &Program{Locks: 1, Threads: [][]Op{{{Kind: OpLock, Addr: 5}}}}},
		{"unlock without lock", &Program{Locks: 1, Threads: [][]Op{{{Kind: OpUnlock, Addr: 0}}}}},
		{"lock left held", &Program{Locks: 1, Threads: [][]Op{{{Kind: OpLock, Addr: 0}}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Generate(7, genCfg(3))
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Error("round-trip mismatch")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("truncated input accepted")
	}
	if _, err := Decode(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("zero magic accepted")
	}
}

func newMachine(t *testing.T, d machine.Design) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig(d, 4)
	cfg.MemBytes = 16 << 20
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDifferentialSingleThread is the strict cross-design property: a
// single-threaded program (no interleaving freedom) leaves the identical
// coherent memory state under every persistency design — the designs may
// only differ in durability timing.
func TestDifferentialSingleThread(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := Generate(seed, genCfg(1))
		var ref []byte
		var refDesign machine.Design
		for _, d := range machine.AllDesigns {
			m := newMachine(t, d)
			if _, err := p.Replay(m); err != nil {
				t.Fatalf("seed %d on %s: %v", seed, d, err)
			}
			img := make([]byte, 2<<20)
			m.Space().Arch.Read(mem.DefaultBase+1<<20, img)
			if ref == nil {
				ref, refDesign = img, d
				continue
			}
			if !bytes.Equal(ref, img) {
				t.Fatalf("seed %d: architectural state differs between %s and %s", seed, refDesign, d)
			}
		}
	}
}

// TestDifferentialValueMembership is the multi-threaded cross-design
// property: thread timing (and so racing-store order) may differ between
// designs, but every final 8-byte slot must hold a value some thread
// actually stored there (or its initial zero) — no design may corrupt or
// invent data.
func TestDifferentialValueMembership(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := Generate(seed, genCfg(4))
		written := map[mem.Addr]map[uint64]bool{}
		for _, ops := range p.Threads {
			for _, op := range ops {
				if op.Kind == OpStore {
					if written[op.Addr] == nil {
						written[op.Addr] = map[uint64]bool{0: true}
					}
					written[op.Addr][op.Value] = true
				}
			}
		}
		for _, d := range machine.AllDesigns {
			m := newMachine(t, d)
			if _, err := p.Replay(m); err != nil {
				t.Fatalf("seed %d on %s: %v", seed, d, err)
			}
			for a, vals := range written {
				got := m.Space().Arch.ReadU64(a)
				if !vals[got] {
					t.Fatalf("seed %d on %s: slot %#x holds %#x, never stored there", seed, d, uint64(a), got)
				}
			}
		}
	}
}

// TestReplayDeterministic: replaying the same program on the same design
// twice gives the same makespan.
func TestReplayDeterministic(t *testing.T) {
	p := Generate(3, genCfg(4))
	var times []int64
	for i := 0; i < 2; i++ {
		m := newMachine(t, machine.PMEMSpec)
		tm, err := p.Replay(m)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, int64(tm))
	}
	if times[0] != times[1] {
		t.Errorf("makespans differ: %v", times)
	}
}

// TestDesignsDifferInTiming: the same program should generally take
// different simulated time on different designs (the fences cost
// differently) — a sanity check that Replay actually exercises the
// design-specific paths.
func TestDesignsDifferInTiming(t *testing.T) {
	p := Generate(9, genCfg(4))
	times := map[int64]bool{}
	for _, d := range machine.AllDesigns {
		m := newMachine(t, d)
		tm, err := p.Replay(m)
		if err != nil {
			t.Fatal(err)
		}
		times[int64(tm)] = true
	}
	if len(times) < 2 {
		t.Error("all designs produced identical makespans; replay likely ignores design paths")
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[string]Op{
		"store 0x10 <- 0x5": {Kind: OpStore, Addr: 0x10, Value: 5},
		"load 0x20":         {Kind: OpLoad, Addr: 0x20},
		"lock #2":           {Kind: OpLock, Addr: 2},
		"work 7":            {Kind: OpWork, Value: 7},
		"sfence":            {Kind: OpSFence},
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if fmt.Sprint(Kind(200)) == "" {
		t.Error("unknown kind printed empty")
	}
}
