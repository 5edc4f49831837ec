// Command pmemspec-mc is the exhaustive small-scope model checker for
// multi-threaded persistency litmus patterns: for every pattern ×
// design cell it enumerates every non-equivalent thread interleaving
// (sleep-set dynamic partial-order reduction — two steps commute
// unless they touch the same cache block, the shared WPQ path, or the
// lock), replays each schedule through the simulator under a
// controlled scheduler, and folds every reachable crash image from
// each run into the cell verdict. An ORDERED claim contradicted by any
// schedule's crash image fails the command; UNORDERED claims collect
// the cross-schedule witnesses the single-schedule harness
// (pmemspec-litmus) can miss.
//
// Output is deterministic for a fixed configuration, independent of
// -parallel: cells are keyed by (pattern, design) index, schedule
// enumeration is a fixed DFS order, and progress goes to stderr.
//
// Usage:
//
//	pmemspec-mc                         # full corpus, exhaustive schedules (CI gate)
//	pmemspec-mc -quick                  # subsample, capped schedules
//	pmemspec-mc -pattern mt-lock -v     # one family, verbose
//	pmemspec-mc -json > mc.json         # machine-readable report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pmemspec/internal/litmus"
	"pmemspec/internal/mc"
)

func main() {
	var (
		designs  = flag.String("designs", "", "comma-separated design names to run (empty = all five)")
		pattern  = flag.String("pattern", "", "run only patterns whose name contains this substring")
		quick    = flag.Bool("quick", false, "subsampled quick campaign (8 patterns, 24 schedules per cell)")
		maxPat   = flag.Int("max-patterns", 0, "stride-subsample the corpus to at most N patterns (0 = all)")
		maxSched = flag.Int("max-schedules", 0, "cap explored schedules per cell (0 = exhaustive)")
		parallel = flag.Int("parallel", 0, "worker pool width (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "write the JSON report to stdout instead of the summary")
		report   = flag.String("report", "", "write the JSON report to this file")
		list     = flag.Bool("list", false, "list the multi-threaded corpus with expected verdicts and exit")
		verbose  = flag.Bool("v", false, "per-cell progress on stderr")
	)
	flag.Parse()

	if *list {
		listCorpus()
		return
	}

	opts := mc.Options{
		Pattern:      *pattern,
		MaxPatterns:  *maxPat,
		MaxSchedules: *maxSched,
		Parallel:     *parallel,
	}
	if *designs != "" {
		opts.Designs = strings.Split(*designs, ",")
	}
	if *quick {
		if opts.MaxPatterns == 0 {
			opts.MaxPatterns = 8
		}
		if opts.MaxSchedules == 0 {
			opts.MaxSchedules = 24
		}
	}
	if *verbose {
		opts.Progress = func(label string) { fmt.Fprintln(os.Stderr, label) }
	}

	rep := mc.Run(opts)

	if *report != "" {
		if err := writeJSON(*report, rep); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-mc:", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-mc:", err)
			os.Exit(1)
		}
	} else {
		printSummary(rep)
	}
	if !rep.Ok() {
		os.Exit(1)
	}
}

func listCorpus() {
	fmt.Printf("%-24s %-8s %-6s %s\n", "PATTERN", "THREADS", "OPS", "ORDERED ON")
	for _, p := range litmus.MTCorpus() {
		names := []string{"IntelX86", "DPO", "HOPS", "StrandWeaver", "PMEM-Spec"}
		var on []string
		for i, e := range p.Expect {
			if e {
				on = append(on, names[i])
			}
		}
		ops := 0
		for t := 0; t < p.NThreads(); t++ {
			ops += len(p.ThreadOps(t))
		}
		fmt.Printf("%-24s %-8d %-6d %s\n", p.Name, p.NThreads(), ops, strings.Join(on, ","))
	}
}

func printSummary(rep mc.Report) {
	fmt.Println(rep.Summary())
	for _, c := range rep.Cells {
		if c.Refuted || c.Static != c.Expected || len(c.Failures) > 0 {
			fmt.Printf("  FAIL %s/%s: static=%v expected=%v refuted=%v\n",
				c.Pattern, c.Design, c.Static, c.Expected, c.Refuted)
			for _, f := range c.Failures {
				fmt.Printf("       %s\n", f)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
