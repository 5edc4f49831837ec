package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/harness"
	"pmemspec/internal/litmus"
	"pmemspec/internal/machine"
)

// probeGridOps sizes the probe's paper grid, with the crash campaign's
// data-structure scale: large enough for every design's counters to
// move, small enough to add about a second.
const probeGridOps = 20

// tracedRun measures the workload untraced and then traced for half the
// phase each, probes the layers the workload does not call, runs the
// micro-loops, and reports every per-layer metric. Spans and the layer
// table are written to outDir.
func tracedRun(out *bufio.Writer, wl *benchWorkload, seed int64, phase time.Duration, workers int, outDir string) (report, []error, error) {
	base := runLoop(wl, seed, phase/2, 0, workers, nil)
	tr := newTracer()
	traced := runLoop(wl, seed, phase/2, 0, workers, tr)
	probe := runLoop(&benchWorkload{name: "probe", round: func(int64, int) []*job { return probeJobs(wl, seed) }},
		seed, 0, 0, 1, tr)
	t0 := time.Now()
	micros, microErr := runMicro(seed)
	microS := time.Since(t0).Seconds()

	m := map[string]metric{}
	jps := func(st loopStats) float64 { return float64(len(st.jobs)) / st.elapsed.Seconds() }
	m["trace.overhead_pct"] = metric{(jps(base)/jps(traced) - 1) * 100, "%"}

	self := selfTimes(tr.spans)
	meanMS := map[string]float64{}
	for _, s := range self {
		meanMS[s.Name] = s.TotalS / float64(s.Count) * 1000
	}
	for name, span := range map[string]string{
		"harness.run_ms":             "harness.Run",
		"harness.trial_ms":           "harness.RunTrial",
		"harness.discover_ms":        "harness.DiscoverBoundaries",
		"harness.trial_construct_ms": "trial.construct",
		"mc.cell_ms":                 "mc.RunCorpus",
	} {
		m[name] = metric{meanMS[span], "ms"}
	}

	// Grid and model-checker figures come from the traced phase when the
	// workload runs those jobs, else from the probe.
	gridSrc, mcSrc := probe, probe
	switch wl.name {
	case "paper-grid":
		gridSrc = traced
	case "mc-sweep":
		mcSrc = traced
	}
	g := summarizeGrid(gridSrc, 0)
	m["sim_mops_per_s"] = metric{simMops(gridSrc), "Mops/s"}
	m["paper_err_pct"] = metric{g.paperErrPct, "%"}
	m["harness.speedup_x86"] = metric{g.speedupX86, "x"}
	m["harness.speedup_hops"] = metric{g.speedupHOPS, "x"}
	for name, v := range g.counts {
		m[name] = v
	}
	for k, v := range mcFigures(mcSrc) {
		m[k] = v
	}
	for _, r := range micros {
		for k, v := range microMetrics(r) {
			m[k] = v
		}
	}

	all := []loopStats{base, traced, probe}
	rep := report{Metrics: m}
	var errs []error
	for _, st := range all {
		rep.Attempted += len(st.jobs)
		rep.Failed += st.failed()
		errs = append(errs, jobErrors(st)...)
	}
	if microErr != nil {
		errs = append(errs, fmt.Errorf("micro-loop: %w", microErr))
	}

	fmt.Fprintf(out, "%-22s untraced %.4f/s (%d jobs), traced %.4f/s (%d jobs): %+.2f %%\n", "trace.overhead_pct",
		jps(base), len(base.jobs), jps(traced), len(traced.jobs), m["trace.overhead_pct"].Value)
	if wl.name == "paper-grid" {
		printGrid(out, g)
	}
	fmt.Fprintf(out, "self time by span (traced phase and probe, %d spans):\n", len(tr.spans))
	for _, s := range self {
		fmt.Fprintf(out, "  %-28s n=%-6d total %9.3f s  self %9.3f s\n", s.Name, s.Count, s.TotalS, s.SelfS)
	}
	fmt.Fprintf(out, "phases: untraced %.1f s, traced %.1f s, probe %.1f s, micro-loops %.1f s\n",
		base.elapsed.Seconds(), traced.elapsed.Seconds(), probe.elapsed.Seconds(), microS)
	fmt.Fprintln(out, "micro-loops (median ns/op of 5, mean B/op and allocs/op):")
	for _, r := range micros {
		fmt.Fprintf(out, "  %-28s %14.1f ns/op %14.1f B/op %10.2f allocs/op\n", r.Name, r.NsOp, r.BytesOp, r.AllocsOp)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-34s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return rep, errs, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", wl.name, seed))
	if err := tr.writeSpans(stem + ".spans.json"); err != nil {
		return rep, errs, err
	}
	b, err := json.MarshalIndent(struct {
		Self    []selfTime        `json:"self_times"`
		Micro   []microResult     `json:"micro"`
		Metrics map[string]metric `json:"metrics"`
	}{self, micros, m}, "", " ")
	if err != nil {
		return rep, errs, err
	}
	if err := os.WriteFile(stem+".layers.json", b, 0o644); err != nil {
		return rep, errs, err
	}
	fmt.Fprintf(out, "spans and layer table written to %s.{spans,layers}.json\n", stem)
	return rep, errs, nil
}

// probeJobs are the jobs that give per-layer figures for the layers wl
// does not call: a small paper grid, one crash-campaign cell and one
// litmus pattern under every design.
func probeJobs(wl *benchWorkload, seed int64) []*job {
	var jobs []*job
	if wl.name != "paper-grid" {
		jobs = append(jobs, gridJobs(probeGridOps, crashScale, deriveSeed(seed, "probe-grid", 0), 0)...)
	}
	if wl.name != "crash-campaign" {
		p := gridParams("queue", crashThreads, crashOps, deriveSeed(seed, "probe-crash", 0))
		p.Scale = crashScale
		spec := harness.TrialSpec{Design: machine.PMEMSpec, Workload: "queue", Params: p, Mode: fatomic.Lazy}
		rng := newRand(deriveSeed(seed, "probe-crash-points", 0))
		jobs = append(jobs, &job{kind: "harness.DiscoverBoundaries", key: "probe/queue",
			run: func(c jobCtx) result { return discoverCell(c, spec, rng, 0) }})
	}
	if wl.name != "mc-sweep" {
		p := litmus.MTCorpus()[0]
		for _, d := range machine.AllDesigns {
			jobs = append(jobs, &job{kind: "mc.RunCorpus", key: "probe/" + p.Name + "/" + d.String(),
				run: func(c jobCtx) result { return runMCCell(c, p, d) }})
		}
	}
	return jobs
}

// mcFigures are the model checker's per-layer figures over the mc cells
// of st.
func mcFigures(st loopStats) map[string]metric {
	var sched, bound, images, unique int64
	var secs float64
	for _, f := range st.jobs {
		if c := f.res.cell; c != nil {
			sched += int64(c.Schedules)
			bound += c.Bound
			images += int64(c.Images)
			unique += int64(c.UniqueImages)
			secs += f.dur.Seconds()
		}
	}
	rate := 0.0
	if secs > 0 {
		rate = float64(sched) / secs
	}
	return map[string]metric{
		"mc.schedules_per_s": {rate, "1/s"},
		"mc.reduction_ratio": {ratio(uint64(sched), uint64(bound)), "ratio"},
		"mc.unique_ratio":    {ratio(uint64(unique), uint64(images)), "ratio"},
	}
}

// microMetrics names a micro-loop's result as per-layer metrics.
func microMetrics(r microResult) map[string]metric {
	switch r.Name {
	case "machine.new":
		return map[string]metric{"machine.new_ms": {r.NsOp / 1e6, "ms"}, "machine.new_mb": {r.BytesOp / 1e6, "MB"}}
	case "mem.new_image":
		return map[string]metric{"mem.new_image_ms": {r.NsOp / 1e6, "ms"}, "mem.alloc_mb": {r.BytesOp / 1e6, "MB"}}
	case "mem.clone", "fatomic.recover", "workload.verify":
		return map[string]metric{r.Name + "_ms": {r.NsOp / 1e6, "ms"}}
	}
	return map[string]metric{r.Name: {r.NsOp, "ns"}}
}
