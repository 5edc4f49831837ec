// Command pmemspec-sim runs one Table 4 benchmark on one design and
// prints the run's statistics — the quickest way to inspect a single
// simulation.
//
// Usage:
//
//	pmemspec-sim -design pmemspec -workload hashmap -threads 8 -ops 500
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/metrics"
	"pmemspec/internal/workload"
)

func main() {
	var (
		designFlag = flag.String("design", "pmemspec", "intelx86|dpo|hops|strand|pmemspec")
		wlFlag     = flag.String("workload", "hashmap", strings.Join(append(workload.Names(), "synthetic"), "|"))
		threads    = flag.Int("threads", 8, "worker threads")
		ops        = flag.Int("ops", 500, "failure-atomic operations per thread")
		dataSize   = flag.Int("datasize", 0, "item payload bytes (0 = paper default: 64, 1024 for memcached)")
		scale      = flag.Int("scale", 0, "structure scale override (0 = workload default)")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics snapshot JSON to this file")
		tlOut      = flag.String("timeline-out", "", "record the run's event timeline and write a Chrome trace to this file")
	)
	flag.Parse()

	design, err := machine.ParseDesign(*designFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-sim:", err)
		os.Exit(1)
	}
	w, err := workload.ByName(*wlFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-sim:", err)
		os.Exit(1)
	}
	p := workload.Params{Threads: *threads, Ops: *ops, DataSize: 64, Scale: *scale, Seed: *seed}
	if *wlFlag == "memcached" {
		p.DataSize = 1024
	}
	if *dataSize > 0 {
		p.DataSize = *dataSize
	}

	var opts []harness.Option
	if *tlOut != "" {
		opts = append(opts, harness.WithTimeline())
	}
	res, err := harness.Run(design, w, p, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-sim:", err)
		os.Exit(1)
	}
	if *metricsOut != "" {
		if err := exportFile(*metricsOut, res.Metrics.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-sim: metrics-out:", err)
			os.Exit(1)
		}
	}
	if *tlOut != "" {
		name := res.Design.String() + "/" + res.Workload
		err := exportFile(*tlOut, func(w io.Writer) error {
			return metrics.WriteTrace(w, []metrics.NamedTimeline{{Name: name, TL: res.Timeline}})
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-sim: timeline-out:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("design       %s\n", res.Design)
	fmt.Printf("workload     %s (%s)\n", w.Name(), w.Description())
	fmt.Printf("threads      %d × %d ops\n", p.Threads, p.Ops)
	fmt.Printf("committed    %d FASEs\n", res.Committed)
	fmt.Printf("kernel time  %v\n", res.KernelTime)
	fmt.Printf("throughput   %.0f FASEs/s\n", res.Throughput)
	s := res.MStats
	fmt.Printf("loads        %d (L1 %d, LLC %d, PM %d)\n", s.Loads, s.L1Hits, s.LLCHits, s.PMFetches)
	fmt.Printf("stores       %d\n", s.Stores)
	fmt.Printf("fences       clwb=%d sfence=%d ofence=%d dfence=%d spec-barrier=%d\n",
		s.CLWBs, s.SFences, s.OFences, s.DFences, s.SpecBarriers)
	fmt.Printf("stalls       sq=%v pbuf=%v barrier=%v overflow-pauses=%d\n",
		s.SQStallCycles, s.PBufStallCycles, s.BarrierStallCycles, s.SpecOverflowPauses)
	fmt.Printf("writebacks   to-PM=%d dropped=%d\n", s.DirtyWritebacksToPM, s.DroppedDirtyWritebacks)
	fmt.Printf("speculation  stale-fetches=%d misspeculations=%d\n", s.StaleFetches, len(s.Misspeculations))
	r := res.RStats
	fmt.Printf("runtime      fases=%d aborts=%d suppressed-faults=%d undone-entries=%d\n",
		r.FASEs, r.Aborts, r.FaultsSuppressed, r.UndoneEntries)
	fmt.Println("verification OK")
}

// exportFile streams one export into a freshly created file.
func exportFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
