// Command pmemspec-trace generates, replays and differentially checks
// ISA-level operation traces on the simulated machine.
//
//	pmemspec-trace -mode gen -seed 7 -out prog.trace
//	pmemspec-trace -mode replay -in prog.trace -design hops
//	pmemspec-trace -mode diff -seed 7            # all designs, one program
//	pmemspec-trace -mode fuzz -runs 50           # random differential sweep
//
// The diff/fuzz modes run the repository's differential property: a
// single-threaded program must leave the identical coherent memory
// state under every persistency design, and a multi-threaded program's
// final values must all have been actually stored by the program.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/metrics"
	"pmemspec/internal/trace"
)

func buildMachine(d machine.Design, threads int, timeline bool) (*machine.Machine, error) {
	cfg := machine.DefaultConfig(d, threads)
	cfg.MemBytes = 32 << 20
	cfg.Timeline = timeline
	return machine.New(cfg)
}

func genConfig(threads, ops int) trace.GenConfig {
	return trace.GenConfig{
		Threads:      threads,
		OpsPerThread: ops,
		Blocks:       256,
		Locks:        4,
		HeapBase:     mem.DefaultBase + 1<<20,
	}
}

// diffOne runs the differential property for one seed and returns an
// error describing the first divergence.
func diffOne(seed int64, threads, ops int) error {
	p := trace.Generate(seed, genConfig(threads, ops))
	written := map[mem.Addr]map[uint64]bool{}
	for _, opsT := range p.Threads {
		for _, op := range opsT {
			if op.Kind == trace.OpStore {
				if written[op.Addr] == nil {
					written[op.Addr] = map[uint64]bool{0: true}
				}
				written[op.Addr][op.Value] = true
			}
		}
	}
	// Sorted slot order so the first reported divergence is stable.
	addrs := make([]mem.Addr, 0, len(written))
	for a := range written {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var ref []byte
	var refDesign machine.Design
	for _, d := range machine.AllDesigns {
		m, err := buildMachine(d, threads, false)
		if err != nil {
			return err
		}
		if _, err := p.Replay(m); err != nil {
			return fmt.Errorf("seed %d on %s: %w", seed, d, err)
		}
		if threads == 1 {
			img := make([]byte, 4<<20)
			m.Space().Arch.Read(mem.DefaultBase+1<<20, img)
			if ref == nil {
				ref, refDesign = img, d
			} else if string(ref) != string(img) {
				return fmt.Errorf("seed %d: architectural state differs between %s and %s", seed, refDesign, d)
			}
		}
		for _, a := range addrs {
			if got := m.Space().Arch.ReadU64(a); !written[a][got] {
				return fmt.Errorf("seed %d on %s: slot %#x holds %#x, never stored", seed, d, uint64(a), got)
			}
		}
	}
	return nil
}

func main() {
	var (
		mode    = flag.String("mode", "diff", "gen|replay|diff|fuzz")
		seed    = flag.Int64("seed", 1, "program seed (gen/diff)")
		threads = flag.Int("threads", 4, "program threads")
		ops     = flag.Int("ops", 400, "operations per thread")
		runs    = flag.Int("runs", 20, "programs to sweep in fuzz mode")
		inFile  = flag.String("in", "", "trace file to replay")
		outFile = flag.String("out", "", "trace file to write (gen)")
		design  = flag.String("design", "pmemspec", "design for replay mode")
		tlOut   = flag.String("timeline-out", "", "replay mode: record the event timeline and write a Chrome trace to this file")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pmemspec-trace:", err)
		os.Exit(1)
	}

	switch *mode {
	case "gen":
		p := trace.Generate(*seed, genConfig(*threads, *ops))
		w := os.Stdout
		if *outFile != "" {
			f, err := os.Create(*outFile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := p.Encode(w); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d-thread program (%d ops/thread, seed %d)\n", *threads, *ops, *seed)

	case "replay":
		if *inFile == "" {
			fail(fmt.Errorf("-in required for replay"))
		}
		f, err := os.Open(*inFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		p, err := trace.Decode(f)
		if err != nil {
			fail(err)
		}
		d, err := machine.ParseDesign(*design)
		if err != nil {
			fail(err)
		}
		m, err := buildMachine(d, len(p.Threads), *tlOut != "")
		if err != nil {
			fail(err)
		}
		makespan, err := p.Replay(m)
		if err != nil {
			fail(err)
		}
		if *tlOut != "" {
			f, err := os.Create(*tlOut)
			if err == nil {
				name := d.String() + "/" + *inFile
				err = metrics.WriteTrace(f, []metrics.NamedTimeline{{Name: name, TL: m.Timeline()}})
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fail(err)
			}
		}
		st := m.Stats()
		fmt.Printf("%s: makespan %v | loads %d stores %d pm-fetches %d | misspeculations %d\n",
			d, makespan, st.Loads, st.Stores, st.PMFetches, len(st.Misspeculations))

	case "diff":
		if err := diffOne(*seed, *threads, *ops); err != nil {
			fail(err)
		}
		fmt.Printf("seed %d: all designs agree\n", *seed)

	case "fuzz":
		for s := int64(1); s <= int64(*runs); s++ {
			// Alternate single-threaded (strict equality) and
			// multi-threaded (value membership) programs.
			th := *threads
			if s%2 == 0 {
				th = 1
			}
			if err := diffOne(s, th, *ops); err != nil {
				fail(err)
			}
		}
		fmt.Printf("%d programs: all designs agree\n", *runs)

	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
}
