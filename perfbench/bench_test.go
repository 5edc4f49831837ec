package main

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && samplesBeyond(tc.n, p) < beyondFloor {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, p, samplesBeyond(tc.n, p))
		}
	}
	for _, w := range workloads {
		n := minSamples(w.tailPct)
		if samplesBeyond(n, w.tailPct) < beyondFloor || samplesBeyond(n-1, w.tailPct) >= beyondFloor {
			t.Errorf("%s: minSamples(p%g) = %d is not the least count with %d beyond", w.name, w.tailPct, n, beyondFloor)
		}
		if reportedTail(w, n) != w.tailPct {
			t.Errorf("%s: with %d jobs the tail is p%g, want p%g", w.name, n, reportedTail(w, n), w.tailPct)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %g, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// fakeWorkload is a round of n jobs of which the listed indexes fail,
// one by returning an error and one by panicking; job 0 queues one
// follow-up job.
func fakeWorkload(n int, failing map[int]bool) *benchWorkload {
	return &benchWorkload{name: "fake", tailPct: 50, round: func(seed int64, r int) []*job {
		var jobs []*job
		for i := 0; i < n; i++ {
			jobs = append(jobs, &job{kind: "fake", key: fmt.Sprint(i), round: r, run: func(c jobCtx) result {
				switch {
				case failing[i] && i%2 == 0:
					return result{err: errors.New("injected failure")}
				case failing[i]:
					panic("injected panic")
				case i == 0:
					return result{follow: []*job{{kind: "follow", key: "f", round: r,
						run: func(jobCtx) result { return result{} }}}}
				}
				return result{}
			}})
		}
		return jobs
	}}
}

func TestFailedJobsCount(t *testing.T) {
	clean := runLoop(fakeWorkload(6, nil), 1, 0, 0, 2, nil)
	if clean.failed() != 0 || len(clean.jobs) != 7 || clean.rounds != 1 {
		t.Fatalf("clean round: %d failed of %d jobs in %d rounds, want 0 of 7 in 1", clean.failed(), len(clean.jobs), clean.rounds)
	}
	st := runLoop(fakeWorkload(6, map[int]bool{2: true, 3: true}), 1, 0, 0, 2, nil)
	if st.failed() != 2 || len(st.jobs) != 7 {
		t.Fatalf("%d failed of %d jobs, want 2 of 7", st.failed(), len(st.jobs))
	}
	if errs := jobErrors(st); len(errs) != 2 {
		t.Fatalf("jobErrors: %v", errs)
	}
}

func TestLoopRunsWholeRoundsUntilEnoughJobs(t *testing.T) {
	st := runLoop(fakeWorkload(4, nil), 1, 0, 12, 2, nil)
	// Each round is 4 jobs plus one follow-up: 12 jobs need 3 rounds.
	if st.rounds != 3 || len(st.jobs) != 15 {
		t.Fatalf("%d rounds, %d jobs; want 3 rounds, 15 jobs", st.rounds, len(st.jobs))
	}
	perRound := map[int]int{}
	for _, f := range st.jobs {
		perRound[f.job.round]++
	}
	for r := 0; r < 3; r++ {
		if perRound[r] != 5 {
			t.Errorf("round %d ran %d jobs, want 5", r, perRound[r])
		}
	}
}

func TestOrderRoundPutsLongestKnownCellsFirst(t *testing.T) {
	jobs := []*job{{key: "a"}, {key: "b"}, {key: "c"}, {key: "new"}}
	last := map[string]time.Duration{"a": 1, "b": 3, "c": 2}
	orderRound(jobs, newRand(1), last)
	var got string
	for _, j := range jobs {
		got += j.key + " "
	}
	if got != "new b c a " {
		t.Errorf("order %q, want untimed cell first, then longest first", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "harness.RunTrial", Start: 10, End: 90, Parent: 0},
		{Name: "trial.construct", Start: 10, End: 40, Parent: 1},
		{Name: "trial.construct", Start: 30, End: 50, Parent: 1}, // overlaps the first
		{Name: "open", Start: 95, End: -1, Parent: 0},            // never closed: ignored
	}
	self := map[string]float64{}
	for _, s := range selfTimes(spans) {
		self[s.Name] = s.SelfS * 1e9
	}
	want := map[string]float64{"job": 20, "harness.RunTrial": 40, "trial.construct": 50}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-6 {
			t.Errorf("%s self time %g ns, want %g", name, self[name], w)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("an unclosed span was counted")
	}
}

// tinyGrid runs one paper grid at a test-sized scale and returns its
// simulated digest.
func tinyGrid(t *testing.T, seed int64) gridSummary {
	t.Helper()
	wl := &benchWorkload{name: "paper-grid", round: func(s int64, r int) []*job {
		return gridJobs(2, 64, deriveSeed(s, "paper-grid", r), r)
	}}
	st := runLoop(wl, seed, 0, 0, 2, nil)
	if st.failed() != 0 {
		t.Fatalf("seed %d: %v", seed, jobErrors(st))
	}
	g := summarizeGrid(st, 0)
	if g.cells != 32 {
		t.Fatalf("seed %d: %d grid cells, want 32", seed, g.cells)
	}
	return g
}

func TestSeedPlumbing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three small paper grids")
	}
	a, b, c := tinyGrid(t, 7), tinyGrid(t, 7), tinyGrid(t, 8)
	if a.digest != b.digest || a.paperErrPct != b.paperErrPct {
		t.Errorf("same seed, different simulated outcome: %s vs %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 gave the same simulated digest %s", a.digest)
	}
}

func TestSeedDerivesInputs(t *testing.T) {
	for _, w := range workloads {
		r0, again := w.round(5, 0), w.round(5, 0)
		if len(r0) == 0 || len(r0) != len(again) {
			t.Fatalf("%s: rounds of %d and %d jobs", w.name, len(r0), len(again))
		}
	}
	if deriveSeed(5, "paper-grid", 0) == deriveSeed(6, "paper-grid", 0) ||
		deriveSeed(5, "paper-grid", 0) == deriveSeed(5, "paper-grid", 1) ||
		deriveSeed(5, "paper-grid", 0) == deriveSeed(5, "crash-campaign", 0) {
		t.Error("derived seeds collide across run seeds, rounds or uses")
	}
	if deriveSeed(5, "paper-grid", 0) != deriveSeed(5, "paper-grid", 0) {
		t.Error("deriveSeed is not deterministic")
	}
	// The model-checking corpus is fixed; the seed orders its cells.
	order := func(seed int64) string {
		jobs := mcRound(seed, 0)
		orderRound(jobs, newRand(deriveSeed(seed, "order", 0)), map[string]time.Duration{})
		return jobs[0].key + jobs[1].key + jobs[2].key
	}
	if order(1) != order(1) || order(1) == order(2) {
		t.Error("mc-sweep cell order does not follow the seed")
	}
}
