package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// want is one expected diagnostic: a substring that must appear in a
// diagnostic reported at file:line.
type want struct {
	file   string
	line   int
	substr string
}

// wantRE extracts the quoted substrings of a `// want "..." "..."`
// comment.
var wantRE = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

// parseWants scans the fixture sources for // want comments.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range regexp.MustCompile(`"[^"]*"`).FindAllString(m[1], -1) {
				wants = append(wants, want{file: e.Name(), line: i + 1, substr: strings.Trim(q, `"`)})
			}
		}
	}
	return wants
}

// runGolden checks analyzers against their fixture package: every
// diagnostic must match a // want comment on its line and vice versa.
func runGolden(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	root := repoRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	rel := "internal/analysis/testdata/src/" + fixture
	pkgs, err := l.Load("./" + rel)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(l.Fset, pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, filepath.Join(root, filepath.FromSlash(rel)))
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", fixture)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == filepath.Base(d.File) && w.line == d.Line && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: missing diagnostic containing %q", w.file, w.line, w.substr)
		}
	}
}

func TestSpecPairGolden(t *testing.T)       { runGolden(t, "specpairtest", SpecPair) }
func TestSimDeterminismGolden(t *testing.T) { runGolden(t, "simdeterminismtest", SimDeterminism) }
func TestPoolCaptureGolden(t *testing.T)    { runGolden(t, "poolcapturetest", PoolCapture) }
func TestFlushCoalesceGolden(t *testing.T)  { runGolden(t, "flushcoalescetest", FlushCoalesce) }
func TestFenceHoistGolden(t *testing.T)     { runGolden(t, "fencehoisttest", FenceHoist) }

// TestEpochMergeGolden runs persistflow too, so its one finding on the
// fixture (a store ordered but never flushed) is pinned.
func TestEpochMergeGolden(t *testing.T) { runGolden(t, "epochmergetest", EpochMerge, PersistFlow) }

// TestRepoLintsClean is the repository's own gate: the full module must
// produce zero diagnostics under all analyzers.
func TestRepoLintsClean(t *testing.T) {
	root := repoRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(l.Fset, pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repository should lint clean, got: %s", d)
	}
}

// TestLoaderResolvesModuleAndStdlib covers the loader's two resolution
// domains and the dependency ordering contract.
func TestLoaderResolvesModuleAndStdlib(t *testing.T) {
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/workload")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || !pkgs[0].InModule {
		t.Fatalf("expected one module package, got %+v", pkgs)
	}
	if pkgs[0].Types == nil || pkgs[0].Types.Scope().Lookup("Workload") == nil {
		t.Fatal("workload package did not type-check (Workload not found in scope)")
	}
}

// TestLoaderDepCacheShared covers the cross-loader dependency cache:
// non-module packages type-checked by one loader are reused verbatim
// by the next (the opt driver builds a fresh loader per re-analysis,
// and only the module should be re-checked).
func TestLoaderDepCacheShared(t *testing.T) {
	root := repoRoot(t)
	l1, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Load("./internal/workload"); err != nil {
		t.Fatal(err)
	}
	l2, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Load("./internal/workload"); err != nil {
		t.Fatal(err)
	}
	if l1.Fset != l2.Fset {
		t.Fatal("loaders do not share the dependency FileSet")
	}
	shared := 0
	for path, p1 := range l1.pkgs {
		if p1 == nil || p1.InModule {
			continue
		}
		if p2 := l2.pkgs[path]; p2 != p1 {
			t.Errorf("dependency %s re-checked instead of reused", path)
		} else {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no dependency packages were shared between loaders")
	}
	for path, p := range l2.pkgs {
		if p != nil && p.InModule {
			if cached := depCache.pkgs[depKey(&l2.ctx, path)]; cached != nil {
				t.Errorf("module package %s leaked into the dependency cache", path)
			}
		}
	}
}

// TestLoaderDepCacheContextKeyed is the regression test for the cache
// key: entries are qualified by the build context, so two loaders with
// different toolchains (a sandboxed opt run pointing GOROOT elsewhere,
// a build-tag variant) can never share a type-checked dependency. A
// path-only key would hand the second loader a stdlib checked under
// the first loader's GOROOT.
func TestLoaderDepCacheContextKeyed(t *testing.T) {
	root := repoRoot(t)
	l1, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Load("./internal/mem"); err != nil {
		t.Fatal(err)
	}
	var dep string
	for path, p := range l1.pkgs {
		if p != nil && !p.InModule {
			dep = path
			break
		}
	}
	if dep == "" {
		t.Fatal("no dependency package loaded")
	}

	// Same context: hit. Different GOROOT or tags: distinct entries.
	if depCache.pkgs[depKey(&l1.ctx, dep)] == nil {
		t.Fatalf("dependency %s not cached under its own context key", dep)
	}
	altGoroot := l1.ctx
	altGoroot.GOROOT = "/nonexistent-toolchain"
	if depCache.pkgs[depKey(&altGoroot, dep)] != nil {
		t.Fatal("cache entry shared across GOROOTs")
	}
	altTags := l1.ctx
	altTags.BuildTags = append([]string{"sandboxtag"}, altTags.BuildTags...)
	if depCache.pkgs[depKey(&altTags, dep)] != nil {
		t.Fatal("cache entry shared across build-tag sets")
	}

	// End to end: a loader whose context cannot resolve the stdlib must
	// fail to load rather than silently reuse the other context's
	// entries.
	l2, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l2.ctx.GOROOT = "/nonexistent-toolchain"
	if _, err := l2.Load("./internal/mem"); err == nil {
		t.Fatal("loader with a bogus GOROOT loaded the stdlib — it must have reused another context's cache entries")
	}
}

// TestAllowDirectiveParsing covers the escape-hatch comment forms: a
// comma-separated name list, then free text that names nothing, and a
// diagnostic for every listed name that is not an analyzer.
func TestAllowDirectiveParsing(t *testing.T) {
	if !allowRE.MatchString("//lint:allow specpair") {
		t.Error("bare directive not recognized")
	}
	if allowRE.MatchString("// lint:disallow specpair") {
		t.Error("non-directive comment recognized")
	}

	src := `package p

func f() {
	_ = 1 // lint:allow specpair, persistflow some reason
	_ = 2 //lint:allow persistflow redo entries are ordered by specpair later
	_ = 3 //lint:allow nosuch,simdeterminism
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allow, stale := allowDirectives(fset, &Package{Path: "p", Files: []*ast.File{f}})
	for line, want := range map[int][]string{
		4: {"specpair", "persistflow"},
		5: {"persistflow"},
		6: {"nosuch", "simdeterminism"},
	} {
		if got := allow["p.go"][line]; !slices.Equal(got, want) {
			t.Errorf("line %d: allowed %q, want %q", line, got, want)
		}
	}
	if len(stale) != 1 || stale[0].Line != 6 || stale[0].Analyzer != allowAnalyzer ||
		!strings.Contains(stale[0].Message, `"nosuch"`) {
		t.Errorf("want one diagnostic naming \"nosuch\" on line 6, got %v", stale)
	}
}
