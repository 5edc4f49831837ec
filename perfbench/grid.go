package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"pmemspec/internal/machine"
	"pmemspec/internal/stats"
)

// The paper's 8-core geomean speedups of PMEM-Spec (Fig 9), simulated
// on gem5.
const (
	paperSpeedupX86  = 1.272
	paperSpeedupHOPS = 1.106
)

// gridSummary is the simulated outcome of one complete paper grid.
type gridSummary struct {
	cells       int
	digest      string
	speedupX86  float64 // PMEM-Spec ÷ IntelX86 geomean throughput
	speedupHOPS float64 // PMEM-Spec ÷ HOPS geomean throughput
	paperErrPct float64
	counts      map[string]metric // per-design simulated counts by metric name
}

// summarizeGrid summarizes the paper-grid cells of round r. Only a
// round every run completes is comparable between runs of one seed, so
// callers pass round 0.
func summarizeGrid(st loopStats, r int) gridSummary {
	var cells []finished
	for _, f := range st.jobs {
		if f.job.round == r && f.res.grid != nil {
			cells = append(cells, f)
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].job.key < cells[j].job.key })
	h := sha256.New()
	for _, f := range cells {
		h.Write(f.res.record)
		h.Write([]byte{'\n'})
	}
	g := gridSummary{cells: len(cells), digest: hex.EncodeToString(h.Sum(nil))[:16], counts: map[string]metric{}}

	tput := map[string]map[machine.Design]float64{}
	sum := map[machine.Design]map[string]uint64{}
	for _, f := range cells {
		c := f.res.grid
		if tput[c.workload] == nil {
			tput[c.workload] = map[machine.Design]float64{}
		}
		tput[c.workload][c.design] = c.throughput
		if sum[c.design] == nil {
			sum[c.design] = map[string]uint64{}
		}
		for _, m := range c.snapshot {
			if m.Kind == "counter" {
				sum[c.design][m.Component+"."+m.Name] += m.Value
			}
		}
	}
	// Workloads in a fixed order, so the geomeans sum in the same order
	// in every run.
	names := make([]string, 0, len(tput))
	for w := range tput {
		names = append(names, w)
	}
	sort.Strings(names)
	norm := map[machine.Design][]float64{}
	for _, w := range names {
		for _, d := range machine.Designs {
			norm[d] = append(norm[d], tput[w][d]/tput[w][machine.IntelX86])
		}
	}
	geo := func(d machine.Design) float64 { return stats.Geomean(norm[d]) }
	g.speedupX86 = geo(machine.PMEMSpec)
	g.speedupHOPS = geo(machine.PMEMSpec) / geo(machine.HOPS)
	g.paperErrPct = (math.Abs(g.speedupX86/paperSpeedupX86-1) + math.Abs(g.speedupHOPS/paperSpeedupHOPS-1)) / 2 * 100

	// Stall counters are reported for the designs that have the stalling
	// structure and were seen to stall; DPO's WPQ and persist-buffer
	// stalls and the store-queue stalls outside IntelX86 stay 0 at the
	// paper's configuration and are covered by the digest alone.
	for _, d := range machine.Designs {
		s := sum[d]
		slug := designSlug(d)
		put := func(name, unit string, v float64) { g.counts[name+"."+slug] = metric{v, unit} }
		put("machine.l1_hit_ratio", "ratio", ratio(s["machine.l1_hits"], s["machine.l1_hits"]+s["machine.llc_hits"]+s["machine.pm_fetches"]))
		put("machine.pm_fetches", "count", float64(s["machine.pm_fetches"]))
		put("machine.barrier_stall_cycles", "count", float64(s["machine.barrier_stall_cycles"]))
		put("wpq.coalesce_ratio", "ratio", ratio(s["wpq.coalesced"], s["wpq.accepts"]))
		switch d {
		case machine.IntelX86:
			put("machine.sq_stall_cycles", "count", float64(s["machine.sq_stall_cycles"]))
			put("wpq.stall_cycles", "count", float64(s["wpq.stall_cycles"]))
		case machine.HOPS:
			put("machine.pbuf_stall_cycles", "count", float64(s["machine.pbuf_stall_cycles"]))
			put("wpq.stall_cycles", "count", float64(s["wpq.stall_cycles"]))
		case machine.PMEMSpec:
			put("wpq.stall_cycles", "count", float64(s["wpq.stall_cycles"]))
			put("ppath.slot_stall_cycles", "count", float64(s["ppath.slot_stall_cycles"]))
			put("specbuf.overflows", "count", float64(s["specbuf.overflows"]))
			put("specbuf.misspecs", "count", float64(s["specbuf.load_misspecs"]+s["specbuf.store_misspecs"]))
			put("fatomic.aborts", "count", float64(s["fatomic.aborts"]))
		}
	}
	return g
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// simMops is simulated loads plus stores, in millions, per host second
// spent inside paper-grid jobs.
func simMops(st loopStats) float64 {
	var ops uint64
	var secs float64
	for _, f := range st.jobs {
		if c := f.res.grid; c != nil {
			ops += c.loads + c.stores
			secs += f.dur.Seconds()
		}
	}
	if secs == 0 {
		return 0
	}
	return float64(ops) / 1e6 / secs
}

func printGrid(out *bufio.Writer, g gridSummary) {
	fmt.Fprintf(out, "%-22s %s (round 0, %d cells)\n", "sim_digest", g.digest, g.cells)
	fmt.Fprintf(out, "%-22s %.4f (paper %.3f)\n", "harness.speedup_x86", g.speedupX86, paperSpeedupX86)
	fmt.Fprintf(out, "%-22s %.4f (paper %.3f)\n", "harness.speedup_hops", g.speedupHOPS, paperSpeedupHOPS)
	fmt.Fprintf(out, "%-22s %.4f %% (simulated, round 0)\n", "paper_err_pct", g.paperErrPct)
}
