package harness

import (
	"fmt"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/metrics"
	"pmemspec/internal/osint"
	"pmemspec/internal/persist"
	"pmemspec/internal/sim"
	"pmemspec/internal/stats"
	"pmemspec/internal/workload"
)

// RunDetectOnly is Run without the OS/runtime recovery wiring:
// misspeculations are detected and counted by the hardware but never
// delivered, which the §5.1.3-vs-§5.1.4 ablation needs (under the
// fetch-based scheme every write-allocate miss misspeculates, and
// recovering from each would livelock — the paper's "not acceptable
// recovery overheads").
func RunDetectOnly(design machine.Design, w workload.Workload, p workload.Params, opts ...Option) (Result, error) {
	return runCustom(design, w, p, fatomic.Lazy, false, opts...)
}

func run(design machine.Design, w workload.Workload, p workload.Params, mode fatomic.Mode, opts ...Option) (Result, error) {
	return runCustom(design, w, p, mode, true, opts...)
}

// Runner executes the experiment drivers with host-level parallelism:
// each driver enumerates its (workload × design × config) grid as
// independent jobs and dispatches them through RunAll. Parallel sets the
// worker count (≤ 0: GOMAXPROCS); results are identical at any setting.
// Progress, if non-nil, receives one label per started run; RunAll
// serializes the calls.
type Runner struct {
	Parallel int
	Progress func(string)

	// Metrics, when non-nil, accumulates every run's observability
	// snapshot into the (design, workload) grid. Merging happens on the
	// dispatching goroutine in job-index order, so the grid is
	// byte-identical at any Parallel setting.
	Metrics *metrics.Grid

	// Timeline, when non-nil, selects which runs record an event
	// timeline; recorded timelines land in Timelines (index order),
	// named "Design/workload".
	Timeline  func(machine.Design, string) bool
	Timelines []metrics.NamedTimeline
}

// benchJob builds the job for one (design, workload, params) run.
func (r *Runner) benchJob(label string, d machine.Design, name string, p workload.Params, opts ...Option) Job[Result] {
	if r.Timeline != nil && r.Timeline(d, name) {
		opts = append(opts, WithTimeline())
	}
	return Job[Result]{Label: label, Run: func() (Result, error) {
		w, err := workload.ByName(name)
		if err != nil {
			return Result{}, err
		}
		return Run(d, w, p, opts...)
	}}
}

// collect folds a completed batch's per-run metrics and timelines into
// the runner, walking job-index order to keep the outputs deterministic.
func (r *Runner) collect(results []JobResult[Result]) {
	for i := range results {
		res := results[i].Result
		if r.Metrics != nil {
			r.Metrics.Add(res.Design.String(), res.Workload, res.Metrics)
		}
		if res.Timeline != nil {
			r.Timelines = append(r.Timelines, metrics.NamedTimeline{
				Name: res.Design.String() + "/" + res.Workload,
				TL:   res.Timeline,
			})
		}
	}
}

// Fig9Row is one benchmark's throughput under each design, normalized to
// the IntelX86 baseline — one group of bars in Figure 9.
type Fig9Row struct {
	Workload   string
	Raw        map[machine.Design]float64 // FASEs per simulated second
	Normalized map[machine.Design]float64
}

// Fig9 reproduces Figure 9 (and, at other core counts, Figure 10's
// panels): all Table 4 benchmarks × all four designs.
func Fig9(threads, ops int, seed int64, progress func(string)) ([]Fig9Row, error) {
	return (&Runner{Progress: progress}).Fig9(threads, ops, seed)
}

// Fig9 runs the Figure 9 grid on the runner's worker pool.
func (r *Runner) Fig9(threads, ops int, seed int64) ([]Fig9Row, error) {
	names := workload.Names()
	designs := machine.Designs
	jobs := make([]Job[Result], 0, len(names)*len(designs))
	for _, name := range names {
		for _, d := range designs {
			jobs = append(jobs, r.benchJob(fmt.Sprintf("fig9: %s / %s", name, d),
				d, name, params(name, threads, ops, seed)))
		}
	}
	results := RunAll(jobs, r.Parallel, r.Progress)
	if err := firstError(results); err != nil {
		return nil, err
	}
	r.collect(results)
	var rows []Fig9Row
	for wi, name := range names {
		row := Fig9Row{
			Workload:   name,
			Raw:        map[machine.Design]float64{},
			Normalized: map[machine.Design]float64{},
		}
		for di, d := range designs {
			row.Raw[d] = results[wi*len(designs)+di].Result.Throughput
		}
		base := row.Raw[machine.IntelX86]
		for d, v := range row.Raw {
			row.Normalized[d] = v / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Geomeans aggregates Fig9 rows into the per-design geometric means the
// paper quotes (1.27x for PMEM-Spec, 1.15x for HOPS at 8 cores).
func Geomeans(rows []Fig9Row) map[machine.Design]float64 {
	out := map[machine.Design]float64{}
	for _, d := range machine.Designs {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r.Normalized[d])
		}
		out[d] = stats.Geomean(xs)
	}
	return out
}

// Fig10 reproduces Figure 10: the Fig9 sweep at 16, 32 and 64 cores.
func Fig10(coreCounts []int, ops int, seed int64, progress func(string)) (map[int][]Fig9Row, error) {
	return (&Runner{Progress: progress}).Fig10(coreCounts, ops, seed)
}

// Fig10 runs every panel's grid through one pool dispatch, so the large
// 64-core runs overlap with the cheaper panels instead of serializing
// panel by panel.
func (r *Runner) Fig10(coreCounts []int, ops int, seed int64) (map[int][]Fig9Row, error) {
	names := workload.Names()
	designs := machine.Designs
	var jobs []Job[Result]
	for _, cores := range coreCounts {
		for _, name := range names {
			for _, d := range designs {
				jobs = append(jobs, r.benchJob(fmt.Sprintf("%d cores: fig9: %s / %s", cores, name, d),
					d, name, params(name, cores, ops, seed)))
			}
		}
	}
	results := RunAll(jobs, r.Parallel, r.Progress)
	if err := firstError(results); err != nil {
		return nil, err
	}
	r.collect(results)
	out := map[int][]Fig9Row{}
	i := 0
	for _, cores := range coreCounts {
		var rows []Fig9Row
		for _, name := range names {
			row := Fig9Row{
				Workload:   name,
				Raw:        map[machine.Design]float64{},
				Normalized: map[machine.Design]float64{},
			}
			for _, d := range designs {
				row.Raw[d] = results[i].Result.Throughput
				i++
			}
			base := row.Raw[machine.IntelX86]
			for d, v := range row.Raw {
				row.Normalized[d] = v / base
			}
			rows = append(rows, row)
		}
		out[cores] = rows
	}
	return out, nil
}

// Fig11Point is one speculation-buffer size's average throughput,
// normalized to the overflow-free (largest) size.
type Fig11Point struct {
	Entries   int
	AvgNorm   float64
	Overflows uint64
}

// Fig11 reproduces Figure 11: PMEM-Spec throughput at speculation-buffer
// sizes {1,2,4,8,16}, averaged over the benchmarks and normalized to the
// 16-entry (overflow-free) configuration.
func Fig11(threads, ops int, seed int64, progress func(string)) ([]Fig11Point, error) {
	return (&Runner{Progress: progress}).Fig11(threads, ops, seed)
}

// Fig11 runs the buffer-size sweep on the runner's worker pool.
func (r *Runner) Fig11(threads, ops int, seed int64) ([]Fig11Point, error) {
	sizes := []int{1, 2, 4, 8, 16}
	names := workload.Names()
	jobs := make([]Job[Result], 0, len(names)*len(sizes))
	for _, name := range names {
		for _, size := range sizes {
			p := params(name, threads, ops, seed)
			if name == "memcached" {
				// Buffer entries come from dirty LLC evictions (§8.3.2),
				// so the buffer-sizing sweep needs the eviction-streaming
				// configuration: a value store well past the LLC.
				p.Scale = 32768
			}
			jobs = append(jobs, r.benchJob(fmt.Sprintf("fig11: %s / %d entries", name, size),
				machine.PMEMSpec, name, p, WithSpecBufEntries(size)))
		}
	}
	results := RunAll(jobs, r.Parallel, r.Progress)
	if err := firstError(results); err != nil {
		return nil, err
	}
	r.collect(results)
	perSize := make(map[int][]float64)
	overflows := make(map[int]uint64)
	for wi := range names {
		for si, size := range sizes {
			res := results[wi*len(sizes)+si].Result
			perSize[size] = append(perSize[size], res.Throughput)
			overflows[size] += res.MStats.SpecOverflowPauses
		}
	}
	// Normalize each benchmark's series by its 16-entry value, then
	// average.
	ref := perSize[16]
	var out []Fig11Point
	for _, size := range sizes {
		var norm []float64
		for i, v := range perSize[size] {
			norm = append(norm, v/ref[i])
		}
		out = append(out, Fig11Point{Entries: size, AvgNorm: stats.Mean(norm), Overflows: overflows[size]})
	}
	return out, nil
}

// Fig12Point is one persist-path latency's geomean throughput (vs the
// IntelX86 baseline) for HOPS and PMEM-Spec.
type Fig12Point struct {
	LatencyNS int64
	Geomean   map[machine.Design]float64
}

// Fig12 reproduces Figure 12: persist-path latency 20→100 ns for HOPS
// and PMEM-Spec, geomean across benchmarks normalized to IntelX86.
// (For HOPS the latency scales its buffer-drain path, the analogous
// resource.)
func Fig12(threads, ops int, seed int64, progress func(string)) ([]Fig12Point, error) {
	return (&Runner{Progress: progress}).Fig12(threads, ops, seed)
}

// Fig12 dispatches the baseline runs and the whole latency sweep as one
// job batch; normalization happens after the barrier.
func (r *Runner) Fig12(threads, ops int, seed int64) ([]Fig12Point, error) {
	latencies := []int64{20, 40, 60, 80, 100}
	sweepDesigns := []machine.Design{machine.HOPS, machine.PMEMSpec}
	names := workload.Names()

	var jobs []Job[Result]
	for _, name := range names {
		jobs = append(jobs, r.benchJob(fmt.Sprintf("fig12: baseline %s", name),
			machine.IntelX86, name, params(name, threads, ops, seed)))
	}
	for _, lat := range latencies {
		for _, d := range sweepDesigns {
			for _, name := range names {
				opt := WithPathLatencyNS(lat)
				if d == machine.HOPS {
					// The analogous knob for the buffered design: its
					// total store-to-controller drain latency becomes
					// the swept value.
					lat := lat
					opt = func(c *machine.Config) {
						c.PBufDrainLag = sim.NS(lat) - c.WritebackLatency
					}
				}
				jobs = append(jobs, r.benchJob(fmt.Sprintf("fig12: %s / %dns / %s", d, lat, name),
					d, name, params(name, threads, ops, seed), opt))
			}
		}
	}
	results := RunAll(jobs, r.Parallel, r.Progress)
	if err := firstError(results); err != nil {
		return nil, err
	}
	r.collect(results)
	base := map[string]float64{}
	for wi, name := range names {
		base[name] = results[wi].Result.Throughput
	}
	i := len(names)
	var out []Fig12Point
	for _, lat := range latencies {
		pt := Fig12Point{LatencyNS: lat, Geomean: map[machine.Design]float64{}}
		for _, d := range sweepDesigns {
			var norm []float64
			for _, name := range names {
				norm = append(norm, results[i].Result.Throughput/base[name])
				i++
			}
			pt.Geomean[d] = stats.Geomean(norm)
		}
		out = append(out, pt)
	}
	return out, nil
}

// MisspecResult is the §8.4 study outcome.
type MisspecResult struct {
	// PerBenchmark is the misspeculation count of each Table 4 benchmark
	// at the default configuration (the paper observed zero).
	PerBenchmark map[string]uint64
	// SyntheticDefault is the synthetic generator's detections at the
	// default 20 ns path (expected zero: the conflict-eviction sequence
	// cannot beat the persist).
	SyntheticDefault SyntheticOutcome
	// SyntheticSlow is the generator at a 10× path latency: stale reads
	// occur, are detected, and the runtime recovers.
	SyntheticSlow SyntheticOutcome
}

// SyntheticOutcome summarizes one synthetic-generator run.
type SyntheticOutcome struct {
	StaleObserved uint64 // ground truth: reloads that returned old data
	StaleFetches  uint64 // ground truth at the controller
	Detected      int    // hardware detections
	Aborts        uint64 // runtime recoveries
	Committed     uint64
	VerifyOK      bool
}

// MisspecStudy reproduces §8.4: misspeculation rates across the suite
// and the synthetic load-misspeculation generator under default and
// inflated persist-path latencies.
func MisspecStudy(threads, ops int, seed int64, progress func(string)) (MisspecResult, error) {
	return (&Runner{Progress: progress}).MisspecStudy(threads, ops, seed)
}

// MisspecStudy runs the per-benchmark grid and both synthetic-generator
// configurations as one job batch.
func (r *Runner) MisspecStudy(threads, ops int, seed int64) (MisspecResult, error) {
	names := workload.Names()
	var jobs []Job[Result]
	for _, name := range names {
		jobs = append(jobs, r.benchJob(fmt.Sprintf("misspec: %s", name),
			machine.PMEMSpec, name, params(name, threads, ops, seed)))
	}
	synDefault, jobDefault := syntheticJob(ops, seed, 20)
	synSlow, jobSlow := syntheticJob(ops, seed, 500)
	jobs = append(jobs, jobDefault, jobSlow)

	results := RunAll(jobs, r.Parallel, r.Progress)
	out := MisspecResult{PerBenchmark: map[string]uint64{}}
	if err := firstError(results); err != nil {
		return out, err
	}
	r.collect(results)
	for wi, name := range names {
		out.PerBenchmark[name] = uint64(len(results[wi].Result.MStats.Misspeculations))
	}
	out.SyntheticDefault = syntheticOutcome(synDefault, results[len(names)].Result)
	out.SyntheticSlow = syntheticOutcome(synSlow, results[len(names)+1].Result)
	return out, nil
}

// syntheticJob builds the §8.4 generator job for a machine whose LLC is
// small and low-associative enough for the conflict-eviction recipe to
// fit inside the speculation window ("Depending on the cache hierarchy,
// the program may require tens of memory accesses"). The slow
// configuration inflates the persist-path latency 25×; with the two PM
// fetches the minimal eviction recipe needs (~420 ns), nothing shorter
// can lose the race — matching the paper's observation that only an
// unrealistically long path latency produces load misspeculation. The
// generator instance is returned so the caller can read its ground-truth
// counters after the pool barrier.
func syntheticJob(ops int, seed int64, pathNS int64) (*workload.Synthetic, Job[Result]) {
	syn := workload.NewSynthetic()
	job := Job[Result]{
		Label: fmt.Sprintf("misspec: synthetic @%dns path", pathNS),
		Run: func() (Result, error) {
			p := workload.Params{Threads: 1, Ops: ops, DataSize: 64, Seed: seed}
			return Run(machine.PMEMSpec, syn, p,
				WithSmallLLC(32*1024, 2),
				WithPathLatencyNS(pathNS),
				func(c *machine.Config) { c.SpecWindow = sim.NS(pathNS * 8) })
		},
	}
	return syn, job
}

// syntheticOutcome pairs a synthetic run's Result with the generator's
// ground-truth counters.
func syntheticOutcome(syn *workload.Synthetic, res Result) SyntheticOutcome {
	return SyntheticOutcome{
		StaleObserved: syn.StaleObserved,
		StaleFetches:  res.MStats.StaleFetches,
		Detected:      len(res.MStats.Misspeculations),
		Aborts:        res.RStats.Aborts,
		Committed:     res.Committed,
		VerifyOK:      true, // Run verified already
	}
}

// AblationResult compares the §5.1.4 eviction-based detector against the
// rejected §5.1.3 fetch-based one on a write-allocate-heavy workload.
type AblationResult struct {
	Scheme         string
	Detections     int
	ActualStale    uint64 // ground truth: real stale fetches
	FalsePositives int    // detections beyond the real stale fetches
	Throughput     float64
}

// DetectionAblation reproduces the §5.1.3 false-misspeculation argument:
// under the fetch-based scheme, every store that misses in the caches is
// (falsely) flagged when its own persist arrives.
func DetectionAblation(threads, ops int, seed int64, progress func(string)) ([2]AblationResult, error) {
	return (&Runner{Progress: progress}).DetectionAblation(threads, ops, seed)
}

// DetectionAblation runs both detector schemes concurrently.
func (r *Runner) DetectionAblation(threads, ops int, seed int64) ([2]AblationResult, error) {
	var out [2]AblationResult
	schemes := []string{"eviction-based (§5.1.4)", "fetch-based (§5.1.3)"}
	var jobs []Job[Result]
	for i, fetchBased := range []bool{false, true} {
		var opts []Option
		if fetchBased {
			opts = append(opts, WithFetchBasedDetection())
		}
		// Memcached's large value store produces steady write-allocate
		// misses — the pattern of Figure 4. The window is widened so it
		// covers the fetch-to-persist gap of a write-allocate miss
		// (media read + path), which is what makes the fetch-based
		// scheme's false positives visible.
		opts = append(opts, func(c *machine.Config) { c.SpecWindow = sim.NS(1000) })
		name := schemes[i]
		jobs = append(jobs, Job[Result]{
			Label: "ablation: " + name,
			Run: func() (Result, error) {
				w, err := workload.ByName("memcached")
				if err != nil {
					return Result{}, err
				}
				return RunDetectOnly(machine.PMEMSpec, w, params("memcached", threads, ops, seed), opts...)
			},
		})
	}
	results := RunAll(jobs, r.Parallel, r.Progress)
	if err := firstError(results); err != nil {
		return out, err
	}
	r.collect(results)
	for i := range results {
		res := results[i].Result
		fp := len(res.MStats.Misspeculations) - int(res.MStats.StaleFetches)
		if fp < 0 {
			fp = 0
		}
		out[i] = AblationResult{
			Scheme:         schemes[i],
			Detections:     len(res.MStats.Misspeculations),
			ActualStale:    res.MStats.StaleFetches,
			FalsePositives: fp,
			Throughput:     res.Throughput,
		}
	}
	return out, nil
}

// runCustom is the shared runner; register selects whether the OS relay
// and recovery are wired.
func runCustom(design machine.Design, w workload.Workload, p workload.Params, mode fatomic.Mode, register bool, opts ...Option) (Result, error) {
	cfg := machine.DefaultConfig(design, p.Threads)
	for _, o := range opts {
		o(&cfg)
	}
	if syn, ok := w.(*workload.Synthetic); ok {
		syn.SetConfigure(cfg)
	}
	if mb := w.MemBytes(p); mb > cfg.MemBytes {
		cfg.MemBytes = mb
	}
	m, err := machine.New(cfg)
	if err != nil {
		return Result{}, err
	}
	var os *osint.OS
	if register {
		os = osint.New(m)
	}
	rt := fatomic.New(m, persist.ForDesign(design), os, mode)
	heap := mem.NewHeap(m.Space(), fatomic.HeapReserve(p.Threads))
	env := &workload.Env{M: m, RT: rt, Heap: heap, P: p}
	res, err := execute(m, rt, env, w, p)
	if err != nil {
		return res, err
	}
	res.Metrics = runMetrics(m, rt, os)
	res.Timeline = m.Timeline()
	return res, nil
}
