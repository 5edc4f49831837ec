// Command perfbench is the repository's benchmark. It runs one named
// workload as a closed loop on a small worker pool, checks every job's
// output, and prints each metric by name and unit; its last line of
// output is one JSON object. See README.md for the workloads and
// metrics.
//
//	go run . -workload paper-grid -seed 1 -seconds 20 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pmemspec/internal/machine"
)

// processStart approximates the process's start: package variables are
// initialized before main runs.
var processStart = time.Now()

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload: paper-grid, crash-campaign or mc-sweep")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "seconds each measured phase runs for, at least")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the span and layer files of a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := workloadByName(*wlName)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: must be at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: must be 0 or 1", *trace)
	}
	workers := min(runtime.NumCPU(), 2)

	setupS, err := measureSetup(wl, *seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	phase := time.Duration(*seconds) * time.Second
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "workload %s  seed %d  workers %d  closed loop  trace %d\n", wl.name, *seed, workers, *trace)
	fmt.Fprintf(out, "%-22s %.4f s (median of %d set-ups)\n", "setup_s", setupS, setupReps)

	var rep report
	var errs []error
	if *trace == 0 {
		st := runLoop(wl, *seed, phase, minSamples(wl.tailPct), workers, nil)
		rep = report{Attempted: len(st.jobs), Failed: st.failed(), Metrics: map[string]metric{}}
		for k, v := range endToEnd(wl, st) {
			rep.Metrics[k] = v
		}
		rep.Metrics["setup_s"] = metric{setupS, "s"}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		printEndToEnd(out, wl, st, rep.Metrics)
		errs = jobErrors(st)
	} else {
		var lerr error
		rep, errs, lerr = tracedRun(out, wl, *seed, phase, workers, *outDir)
		if lerr != nil {
			return lerr
		}
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			errs = append(errs, fmt.Errorf("metric %s is not a finite number", name))
			rep.Metrics[name] = metric{-1, m.Unit}
		}
	}
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(out, "... %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintf(out, "FAIL %v\n", e)
	}
	rep.Correct = len(errs) == 0
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}

// measureSetup sets the workload up setupReps times and returns the
// median in seconds. The first set-up is timed from process start.
// Set-up derives the first round's inputs and builds and releases each
// machine configuration the jobs use, so first-use costs are not timed
// as job time.
func measureSetup(wl *benchWorkload, seed int64) (float64, error) {
	var ds []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = processStart
		}
		if jobs := wl.round(seed, 0); len(jobs) == 0 {
			return 0, errors.New("workload has no jobs")
		}
		for _, cfg := range wl.warm {
			m, err := machine.New(cfg)
			if err != nil {
				return 0, err
			}
			m.Release()
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// endToEnd computes the closed-loop metrics of one untraced phase.
func endToEnd(wl *benchWorkload, st loopStats) map[string]metric {
	ms := st.durationsMS()
	return map[string]metric{
		"jobs_per_s":       {float64(len(st.jobs)) / st.elapsed.Seconds(), "1/s"},
		"job_p50_ms":       {median(ms), "ms"},
		"job_tail_ms":      {percentile(ms, reportedTail(wl, len(ms))), "ms"},
		"alloc_mb_per_job": {float64(st.allocBytes) / 1e6 / float64(len(st.jobs)), "MB"},
	}
}

// reportedTail is the percentile job_tail_ms is taken at: the
// workload's stated percentile, lowered only if the phase holds too few
// jobs for beyondFloor samples beyond it.
func reportedTail(wl *benchWorkload, n int) float64 {
	return min(wl.tailPct, tailPercentile(n))
}

func printEndToEnd(out *bufio.Writer, wl *benchWorkload, st loopStats, ms map[string]metric) {
	n := len(st.jobs)
	p := reportedTail(wl, n)
	fmt.Fprintf(out, "%-22s %d rounds, %d jobs in %.2f s, %d failed (fail_frac %.4f)\n",
		"jobs", st.rounds, n, st.elapsed.Seconds(), st.failed(), float64(st.failed())/float64(max(n, 1)))
	fmt.Fprintf(out, "%-22s %.4f %s\n", "jobs_per_s", ms["jobs_per_s"].Value, ms["jobs_per_s"].Unit)
	fmt.Fprintf(out, "%-22s %.3f ms (n=%d)\n", "job_p50_ms", ms["job_p50_ms"].Value, n)
	fmt.Fprintf(out, "%-22s %.3f ms (p%g, n=%d, %d beyond)\n", "job_tail_ms", ms["job_tail_ms"].Value, p, n, samplesBeyond(n, p))
	fmt.Fprintf(out, "%-22s %.2f MB\n", "peak_rss_mb", ms["peak_rss_mb"].Value)
	fmt.Fprintf(out, "%-22s %.2f MB\n", "alloc_mb_per_job", ms["alloc_mb_per_job"].Value)
	if wl.name == "paper-grid" {
		g := summarizeGrid(st, 0)
		fmt.Fprintf(out, "%-22s %.4f (simulated loads+stores per host second, all rounds)\n", "sim_mops_per_s", simMops(st))
		printGrid(out, g)
	}
}

func jobErrors(st loopStats) []error {
	var errs []error
	for _, f := range st.jobs {
		if f.res.err != nil {
			errs = append(errs, f.res.err)
		}
	}
	return errs
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
