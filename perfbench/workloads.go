package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/harness"
	"pmemspec/internal/litmus"
	"pmemspec/internal/machine"
	"pmemspec/internal/mc"
	"pmemspec/internal/metrics"
	"pmemspec/internal/workload"
)

// benchWorkload is one named benchmark workload: the jobs of each
// round, derived from the run seed and the round number alone.
type benchWorkload struct {
	name string
	// tailPct is the percentile job_tail_ms reports. A phase runs
	// until it holds enough jobs for beyondFloor samples beyond it.
	tailPct float64
	// warm lists the machine configurations the jobs construct; set-up
	// builds and releases each once so first-use costs land in set-up.
	warm  []machine.Config
	round func(seed int64, r int) []*job
}

// Paper-grid sizes: Fig 9 at 8 simulated cores, the paper's data sizes,
// and 100 operations per thread (a median job of ~0.1 s).
const (
	gridCores = 8
	gridOps   = 100
)

// Crash-campaign sizes: small enough that construction, recovery and
// verification dominate a trial.
const (
	crashThreads  = 2
	crashOps      = 20
	crashScale    = 256
	crashBoundary = 2 // persist-boundary instants per cell; 3 points each
	crashUniform  = 2 // seeded uniform crash points per cell
)

var workloads = []*benchWorkload{
	{name: "paper-grid", tailPct: 90, warm: configs(machine.Designs, gridCores), round: gridRound},
	{name: "crash-campaign", tailPct: 99, warm: configs(machine.AllDesigns, crashThreads), round: crashRound},
	{name: "mc-sweep", tailPct: 90, warm: configs(machine.AllDesigns, 2), round: mcRound},
}

func workloadByName(name string) (*benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func configs(designs []machine.Design, cores int) []machine.Config {
	out := make([]machine.Config, len(designs))
	for i, d := range designs {
		out[i] = machine.DefaultConfig(d, cores)
	}
	return out
}

// gridParams are the paper's run parameters for one Table-4 workload:
// 64 B items, 1024 B for memcached (§8.1).
func gridParams(name string, threads, ops int, seed int64) workload.Params {
	p := workload.Params{Threads: threads, Ops: ops, DataSize: 64, Seed: seed}
	if name == "memcached" {
		p.DataSize = 1024
	}
	return p
}

// gridCell is one paper-grid run's simulated outcome.
type gridCell struct {
	workload   string
	design     machine.Design
	throughput float64 // committed FASEs per simulated second
	loads      uint64
	stores     uint64
	snapshot   metrics.Snapshot
}

// gridRound is one Fig 9 grid: the 8 Table-4 workloads × the 4 paper
// designs, every round at its own seed derived from the run seed.
func gridRound(seed int64, r int) []*job {
	return gridJobs(gridOps, 0, deriveSeed(seed, "paper-grid", r), r)
}

// gridJobs is one paper grid at the given operations per thread and
// data-structure scale (0: each workload's default).
func gridJobs(ops, scale int, seed int64, r int) []*job {
	var jobs []*job
	for _, name := range workload.Names() {
		for _, d := range machine.Designs {
			p := gridParams(name, gridCores, ops, seed)
			p.Scale = scale
			jobs = append(jobs, &job{kind: "harness.Run", key: name + "/" + d.String(), round: r,
				run: func(c jobCtx) result { return runGridCell(c, d, name, p) }})
		}
	}
	return jobs
}

func runGridCell(c jobCtx, d machine.Design, name string, p workload.Params) result {
	w, err := workload.ByName(name)
	if err != nil {
		return result{err: err}
	}
	var res harness.Result
	c.call("harness.Run", func() { res, err = harness.Run(d, w, p) })
	if err != nil {
		return result{err: err}
	}
	if res.Committed == 0 || res.Throughput <= 0 {
		return result{err: fmt.Errorf("%s/%s: no FASE committed", name, d)}
	}
	rec, err := json.Marshal(struct {
		Params  workload.Params
		Result  harness.Result
		Metrics metrics.Snapshot
	}{p, res, res.Metrics})
	if err != nil {
		return result{err: err}
	}
	return result{record: rec, grid: &gridCell{workload: name, design: d, throughput: res.Throughput,
		loads: res.MStats.Loads, stores: res.MStats.Stores, snapshot: res.Metrics}}
}

// crashRound is one boundary-aligned crash campaign over the 8 Table-4
// workloads × all 5 designs. Each cell's discovery job queues the
// cell's trials when it finishes.
func crashRound(seed int64, r int) []*job {
	pseed := deriveSeed(seed, "crash-campaign", r)
	var jobs []*job
	for _, name := range workload.Names() {
		for _, d := range machine.AllDesigns {
			p := gridParams(name, crashThreads, crashOps, pseed)
			p.Scale = crashScale
			spec := harness.TrialSpec{Design: d, Workload: name, Params: p, Mode: fatomic.Lazy}
			key := name + "/" + d.String()
			rng := newRand(deriveSeed(seed, "crash-points/"+key, r))
			jobs = append(jobs, &job{kind: "harness.DiscoverBoundaries", key: key, round: r,
				run: func(c jobCtx) result { return discoverCell(c, spec, rng, r) }})
		}
	}
	return jobs
}

// discoverCell finds the cell's persist boundaries and returns one
// trial job per crash point: points at the boundaries plus seeded
// uniform points over the same span.
func discoverCell(c jobCtx, spec harness.TrialSpec, rng *rand.Rand, r int) result {
	var b harness.Boundaries
	var err error
	c.trialCall("harness.DiscoverBoundaries", &spec, func() { b, err = harness.DiscoverBoundaries(spec) })
	if err != nil {
		return result{err: err}
	}
	var maxNS int64
	for _, t := range append(append([]int64(nil), b.DrainNS...), b.AdmitNS...) {
		maxNS = max(maxNS, t)
	}
	if maxNS < 1 {
		return result{err: fmt.Errorf("%s/%s: no persist boundaries", spec.Workload, spec.Design)}
	}
	uniform := make([]harness.CrashPoint, crashUniform)
	for i := range uniform {
		at := 1 + rng.Int63n(maxNS)
		uniform[i] = harness.CrashPoint{AtNS: at, Label: fmt.Sprintf("uniform@%dns", at)}
	}
	key := spec.Workload + "/" + spec.Design.String()
	var follow []*job
	for _, pt := range harness.MergePoints(b.Points(crashBoundary), uniform) {
		ts := spec
		ts.Instrument = nil
		ts.Point = pt
		follow = append(follow, &job{kind: "harness.RunTrial", key: key + "/" + pt.Label, round: r,
			run: func(c jobCtx) result { return runTrial(c, ts) }})
	}
	return result{follow: follow}
}

func runTrial(c jobCtx, spec harness.TrialSpec) result {
	var out harness.CrashOutcome
	var err error
	c.trialCall("harness.RunTrial", &spec, func() { out, err = harness.RunTrial(spec) })
	switch {
	case err != nil:
		return result{err: err}
	case out.Err != nil:
		return result{err: out.Err}
	case out.VerifyErr != nil:
		return result{err: fmt.Errorf("%s/%s %s: crash-consistency violation: %w",
			spec.Workload, spec.Design, spec.Point.Label, out.VerifyErr)}
	}
	return result{}
}

// trialCall times fn, a harness call on *spec, as a child span named
// name. In a traced run a grandchild span "trial.construct" covers the
// call from its start until the harness has built the trial's machine,
// reported through spec's Instrument hook.
func (c jobCtx) trialCall(name string, spec *harness.TrialSpec, fn func()) {
	sp := c.tr.begin(name, c.root, c.id)
	if c.tr != nil {
		con := c.tr.begin("trial.construct", sp, c.id)
		spec.Instrument = func(*machine.Machine) { c.tr.end(con) }
	}
	fn()
	c.tr.end(sp)
}

// mcRound is the exhaustive DPOR sweep of the multi-threaded litmus
// corpus × all 5 designs, one pattern × design cell per job. The
// corpus is fixed; the seed orders the cells.
func mcRound(seed int64, r int) []*job {
	var jobs []*job
	for _, p := range litmus.MTCorpus() {
		for _, d := range machine.AllDesigns {
			jobs = append(jobs, &job{kind: "mc.RunCorpus", key: p.Name + "/" + d.String(), round: r,
				run: func(c jobCtx) result { return runMCCell(c, p, d) }})
		}
	}
	return jobs
}

func runMCCell(c jobCtx, p litmus.Pattern, d machine.Design) result {
	var rep mc.Report
	c.call("mc.RunCorpus", func() {
		rep = mc.RunCorpus([]litmus.Pattern{p}, mc.Options{Designs: []string{d.String()}, Parallel: 1})
	})
	if len(rep.Cells) != 1 {
		return result{err: fmt.Errorf("mc %s/%s: %d cells, want 1", p.Name, d, len(rep.Cells))}
	}
	cell := rep.Cells[0]
	if !rep.Ok() || cell.Capped {
		return result{err: fmt.Errorf("mc %s/%s: %s", p.Name, d, rep.Summary()), cell: &cell}
	}
	return result{cell: &cell}
}
