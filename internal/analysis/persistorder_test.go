package analysis

import (
	"testing"
)

func TestPersistOrderGolden(t *testing.T) { runGolden(t, "persistordertest", PersistOrder) }

// TestStateAnalyzersMissOrderCases is the acceptance check for the
// order lattice: every fixture function flushes and fences all of its
// stores before returning, so the persist-STATE analyzers (specpair,
// persistflow) report nothing — including on commitFirst,
// which writes its commit marker before the data it guards is even
// flushed. Only the persist-ORDER analyzer sees those.
func TestStateAnalyzersMissOrderCases(t *testing.T) {
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/analysis/testdata/src/persistordertest")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(l.Fset, pkgs, []*Analyzer{SpecPair, PersistFlow})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("state analyzer sees a persistorder-only case: %s", d)
	}
}
