// Command pmemspec-crash is the crash-consistency checker: it runs a
// benchmark, injects power failures at a sweep of points in simulated
// time — a uniform grid and, with -boundaries, points aligned to the
// persist boundaries of an instrumented discovery run — executes the §6
// recovery protocol against the surviving persisted image, and verifies
// the workload's structural invariants on the recovered state. Any
// violation is a failure-atomicity bug. With -inject-stale-ns /
// -inject-ooo-ns it additionally raises synthetic misspeculation
// interrupts through the OS relay, exercising the signal → abort →
// rollback path under every design.
//
// Output is deterministic for a fixed configuration, independent of
// -parallel: trials are keyed by index, and progress goes to stderr.
//
// Usage:
//
//	pmemspec-crash -design pmemspec -workload rbtree -points 20
//	pmemspec-crash -all -boundaries -parallel 8 -report campaign.json
//	pmemspec-crash -all -inject-stale-ns 3000 -inject-ooo-ns 5000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/metrics"
	"pmemspec/internal/workload"
)

func main() {
	var (
		designFlag = flag.String("design", "pmemspec", "intelx86|dpo|hops|strand|pmemspec")
		wlFlag     = flag.String("workload", "rbtree", strings.Join(workload.Names(), "|"))
		threads    = flag.Int("threads", 4, "worker threads")
		ops        = flag.Int("ops", 100, "operations per thread")
		points     = flag.Int("points", 12, "uniform crash points swept")
		maxUS      = flag.Int64("maxus", 400, "latest crash point (simulated µs)")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		all        = flag.Bool("all", false, "sweep every workload on every design")
		parallel   = flag.Int("parallel", 0, "worker pool width (0 = GOMAXPROCS)")
		boundaries = flag.Bool("boundaries", false, "align crash points to discovered persist boundaries")
		bBudget    = flag.Int("boundary-budget", 16, "max persist-boundary instants per cell (0 = all)")
		maxPoints  = flag.Int("max-points", 0, "cap merged crash points per cell (0 = all)")
		staleNS    = flag.Int64("inject-stale-ns", 0, "inject a stale-load misspeculation every N simulated ns (0 = off)")
		oooNS      = flag.Int64("inject-ooo-ns", 0, "inject an out-of-order-persist misspeculation every N simulated ns (0 = off)")
		injCount   = flag.Int("inject-count", 0, "cap injected events per chain (0 = unbounded)")
		injOffset  = flag.Int64("inject-offset-ns", 0, "delay before the first injected event (0 = one period)")
		eager      = flag.Bool("eager", false, "eager recovery mode (abort at first runtime op after a signal)")
		report     = flag.String("report", "", "write the JSON campaign report to this file")
		jsonOut    = flag.Bool("json", false, "write the JSON campaign report to stdout instead of the summary")
		metricsOut = flag.String("metrics-out", "", "write the (design, workload) metrics grid JSON to this file")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address while running")
		verbose    = flag.Bool("v", false, "per-trial progress on stderr")
	)
	flag.Parse()

	if *debugAddr != "" {
		// A bind failure is fatal: the user asked for the endpoint, and
		// running the whole campaign without it would silently drop it.
		addr, closer, err := metrics.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-crash: debug-addr:", err)
			os.Exit(1)
		}
		defer closer.Close()
		fmt.Fprintf(os.Stderr, "pmemspec-crash: pprof/expvar on http://%s/debug/pprof/\n", addr)
	}

	cfg := harness.CampaignConfig{
		Params:         workload.Params{Threads: *threads, Ops: *ops, DataSize: 64, Seed: *seed},
		Points:         *points,
		MaxNS:          *maxUS * 1000,
		Boundaries:     *boundaries,
		BoundaryBudget: *bBudget,
		MaxPoints:      *maxPoints,
		Inject: harness.InjectionPlan{
			StalePeriodNS: *staleNS,
			OOOPeriodNS:   *oooNS,
			Count:         *injCount,
			OffsetNS:      *injOffset,
		},
	}
	if *eager {
		cfg.Mode = fatomic.Eager
	}
	if !*all {
		d, err := machine.ParseDesign(*designFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-crash:", err)
			os.Exit(1)
		}
		cfg.Designs = []machine.Design{d}
		cfg.Workloads = []string{*wlFlag}
	}

	runner := harness.Runner{Parallel: *parallel}
	if *verbose {
		runner.Progress = func(label string) { fmt.Fprintln(os.Stderr, "  run:", label) }
	}
	if *metricsOut != "" {
		runner.Metrics = metrics.NewGrid()
	}
	rep, err := runner.RunCampaign(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-crash:", err)
		os.Exit(1)
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = runner.Metrics.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-crash: metrics-out:", err)
			os.Exit(1)
		}
	}
	if *report != "" {
		if err := writeJSON(*report, rep); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-crash:", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-crash:", err)
			os.Exit(1)
		}
	} else {
		printSummary(rep)
	}
	if rep.Violations > 0 || rep.Failures > 0 {
		os.Exit(1)
	}
}

// printSummary prints one line per (design, workload) cell with the
// cell's own verdict — a cell with violations or failed trials never
// reports "invariants OK".
func printSummary(rep harness.CampaignReport) {
	for _, t := range rep.Trials {
		switch t.Verdict {
		case harness.VerdictViolation:
			fmt.Printf("VIOLATION %s/%s %s: %s\n", t.Design, t.Workload, t.Point, t.Detail)
		case harness.VerdictError:
			fmt.Printf("ERROR     %s/%s %s: %s\n", t.Design, t.Workload, t.Point, t.Detail)
		}
	}
	for _, c := range rep.Cells() {
		verdict := "invariants OK"
		if c.Violations > 0 {
			verdict = fmt.Sprintf("%d VIOLATIONS", c.Violations)
		} else if c.Failures > 0 {
			verdict = fmt.Sprintf("%d trials FAILED", c.Failures)
		}
		injected := ""
		if c.InjectedStale+c.InjectedOOO > 0 {
			injected = fmt.Sprintf(", %d misspecs injected", c.InjectedStale+c.InjectedOOO)
		}
		fmt.Printf("%-10s %-10s %d trials, %d crashed mid-run, %d FASEs rolled back%s, %s\n",
			c.Design, c.Workload, c.Trials, c.Crashed, c.RolledBack, injected, verdict)
	}
	if rep.Violations > 0 {
		fmt.Printf("%d crash-consistency violations\n", rep.Violations)
	}
	if rep.Failures > 0 {
		fmt.Printf("%d trials failed to run\n", rep.Failures)
	}
}

func writeJSON(path string, rep harness.CampaignReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
