package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestPersistFlowGolden(t *testing.T)      { runGolden(t, "persistflowtest", PersistFlow) }
func TestRedundantBarrierGolden(t *testing.T) { runGolden(t, "redundantbarriertest", RedundantBarrier) }

// TestPersistFlowFlushFenceGolden pins the Figure 2 obligations on
// functions with no caller to inherit them: never flushed, flushed but
// not ordered, ordered but not flushed, and dirty at a (deferred) lock
// release are persistflow findings; a fence repeated with nothing in
// between is redundantbarrier's.
func TestPersistFlowFlushFenceGolden(t *testing.T) {
	runGolden(t, "flushfencetest", PersistFlow, RedundantBarrier)
}

// TestPersistFlowRangeFunc pins the range-over-func contract: effects
// inside a yield-closure body flow into the loop (the dirty store is
// reported), and a func-typed operand degrades the function instead of
// being mis-summarized as effect-free.
func TestPersistFlowRangeFunc(t *testing.T) { runGolden(t, "rangefunctest", PersistFlow) }

// TestCoarseAnalyzersMissPersistFlowCases checks that the persistflow
// fixture's findings are its own: specpair, which sees lock and spec
// balance but not PM locations, reports nothing on it — including the
// raw-lock store whose §6 spec coverage only persistflow checks.
func TestCoarseAnalyzersMissPersistFlowCases(t *testing.T) {
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/analysis/testdata/src/persistflowtest")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(l.Fset, pkgs, []*Analyzer{SpecPair})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("specpair sees a persistflow-only case: %s", d)
	}
}

// TestDiagnosticsDeterministic pins the -json contract: two fresh
// loaders over every fixture package (except badimport, which does not
// type-check), all analyzers, byte-identical serialized output (the
// (package, file, line, col, analyzer, message) sort leaves no room for
// map-iteration or scheduling order).
func TestDiagnosticsDeterministic(t *testing.T) {
	root := repoRoot(t)
	entries, err := os.ReadDir(filepath.Join(root, "internal", "analysis", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	for _, e := range entries {
		if e.IsDir() && e.Name() != "badimport" {
			patterns = append(patterns, "./internal/analysis/testdata/src/"+e.Name())
		}
	}
	var prev []byte
	for run := 0; run < 2; run++ {
		l, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := l.Load(patterns...)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := RunAnalyzers(l.Fset, pkgs, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) == 0 {
			t.Fatal("fixture set produced no diagnostics")
		}
		data, err := json.Marshal(diags)
		if err != nil {
			t.Fatal(err)
		}
		if run > 0 && string(data) != string(prev) {
			t.Fatalf("diagnostic JSON differs between runs:\nrun %d: %s\nrun %d: %s", run-1, prev, run, data)
		}
		prev = data
	}
}
