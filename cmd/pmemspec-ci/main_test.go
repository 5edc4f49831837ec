package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func record(exp map[string]float64) benchRecord {
	return benchRecord{Parallel: 1, NumCPU: 1, Threads: 8, Ops: 400, Seed: 1, Experiments: exp}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := record(map[string]float64{"fig9": 10, "fig10": 100})
	cur := record(map[string]float64{"fig9": 11.4, "fig10": 90})
	rows, regressions := compare(base, cur, 0.15)
	if regressions != 0 {
		t.Fatalf("got %d regressions, want 0: %+v", regressions, rows)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := record(map[string]float64{"fig9": 10, "fig10": 100})
	cur := record(map[string]float64{"fig9": 11.6, "fig10": 90})
	rows, regressions := compare(base, cur, 0.15)
	if regressions != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", regressions, rows)
	}
	for _, r := range rows {
		if r.Experiment == "fig9" && !r.Regressed {
			t.Fatal("fig9 at +16% should regress at ±15%")
		}
		if r.Experiment == "fig10" && r.Regressed {
			t.Fatal("fig10 speedup must never regress (one-sided gate)")
		}
	}
}

func TestCompareUnpairedExperimentsSkip(t *testing.T) {
	base := record(map[string]float64{"fig9": 10})
	cur := record(map[string]float64{"fig9": 10, "new": 7})
	rows, regressions := compare(base, cur, 0.15)
	if regressions != 0 {
		t.Fatalf("an experiment only in the current run must not fail the gate: %+v", rows)
	}
	notes := map[string]string{}
	for _, r := range rows {
		notes[r.Experiment] = r.Note
	}
	if notes["new"] == "" {
		t.Fatalf("unpaired experiment should carry a note: %v", notes)
	}
}

func TestCompareFailsOnRowMissingFromCurrent(t *testing.T) {
	// A baseline experiment absent from the current run must fail the
	// gate: historically a deleted/renamed experiment sailed through the
	// perf gate as a SKIP row.
	base := record(map[string]float64{"fig9": 10, "old": 5})
	cur := record(map[string]float64{"fig9": 10})
	rows, regressions := compare(base, cur, 0.15)
	if regressions != 1 {
		t.Fatalf("got %d regressions, want 1 for the missing row: %+v", regressions, rows)
	}
	for _, r := range rows {
		if r.Experiment == "old" {
			if !r.Regressed || r.Note == "" {
				t.Fatalf("missing row must be a noted failure: %+v", r)
			}
		} else if r.Regressed {
			t.Fatalf("paired row wrongly regressed: %+v", r)
		}
	}
}

func TestConfigMismatch(t *testing.T) {
	a := record(map[string]float64{"fig9": 1})
	b := a
	b.Threads = 4
	if configMismatch(a, b) == "" {
		t.Fatal("thread-count mismatch must be refused")
	}
	b = a
	b.Seed = 2
	if configMismatch(a, b) == "" {
		t.Fatal("seed mismatch must be refused")
	}
	if configMismatch(a, a) != "" {
		t.Fatal("identical configs must compare")
	}
}

func TestReadRecordRefusesStaleBaseline(t *testing.T) {
	// A record written by an older pmemspec-bench carries a field the
	// current schema no longer has. bench-cmp must refuse it loudly
	// rather than compare wall-clocks measured under other conditions.
	path := filepath.Join(t.TempDir(), "stale.json")
	stale := `{"parallel":1,"num_cpu":1,"threads":8,"ops":400,"seed":1,"retired_stamp":"x",` +
		`"experiments_seconds":{"fig9":10},"total_seconds":10}`
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecord(path); err == nil || !strings.Contains(err.Error(), "retired_stamp") {
		t.Fatalf("readRecord(stale) = %v, want a refusal naming the retired field", err)
	}
}
