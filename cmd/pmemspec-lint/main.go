// Command pmemspec-lint runs the repository's static
// persistency-discipline and determinism analyzers (package
// internal/analysis) over the module, vet-style.
//
// Usage:
//
//	pmemspec-lint [-json] [-c name,name] [-fix] [-diff] [packages...]
//
// Packages default to ./... relative to the module root (found by
// walking up from the working directory to go.mod). Diagnostics print
// as file:line:col: analyzer: message; -json emits a JSON array
// instead (machine-applicable fixes ride along in each entry's "edit"
// field).
//
// Fix mode consumes the suggested edits the redundantbarrier analyzer
// attaches to its findings:
//
//	-fix        apply the edits to the source files in place
//	-diff       print the edits as a unified diff, change nothing
//	-fix -diff  check mode: print the diff, change nothing, and exit 1
//	            if any applicable edit remains (the CI gate)
//
// Either mode reports a summary (diagnostics, applicable edits, files,
// elapsed time) to stderr. Exit status is 1 if any diagnostic was
// reported (or, in check mode, any edit remains), 2 on loader or
// analysis failure, 0 otherwise.
//
// Suppress an individual finding with a //lint:allow name[,name...]
// [reason] comment on the same or the preceding line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pmemspec/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	checks := flag.String("c", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	fix := flag.Bool("fix", false, "apply suggested edits in place (-fix -diff: check mode, no writes)")
	diff := flag.Bool("diff", false, "print suggested edits as a unified diff without applying")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pmemspec-lint [-json] [-c name,name] [-fix] [-diff] [packages...]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nOptimization analyzers (select explicitly with -c; not in the default set):\n")
		for _, a := range analysis.OptAnalyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		for _, a := range analysis.OptAnalyzers() {
			fmt.Printf("%-16s %s (opt; -c only)\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-lint:", err)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-lint:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-lint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now() //lint:allow simdeterminism CLI wall-clock stat, not simulator state
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-lint:", err)
		os.Exit(2)
	}

	diags, stats, err := analysis.RunAnalyzersTimed(loader.Fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-lint:", err)
		os.Exit(2)
	}
	elapsed := time.Since(start) //lint:allow simdeterminism CLI wall-clock stat, not simulator state

	edits := analysis.CollectEdits(diags)
	nEdits := 0
	for _, es := range edits {
		nEdits += len(es)
	}
	// Fix mode runs before output so skipped edits can be both reported
	// on stderr and annotated into the -json entries.
	if *fix || *diff {
		skipped, err := runFix(root, edits, *fix && !*diff, *diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-lint:", err)
			os.Exit(2)
		}
		if len(skipped) > 0 {
			byEdit := map[*analysis.SuggestedEdit]int{}
			for i := range diags {
				if diags[i].Edit != nil {
					byEdit[diags[i].Edit] = i
				}
			}
			for _, e := range skipped {
				if i, ok := byEdit[e]; ok {
					diags[i].EditSkipped = true
					fmt.Fprintf(os.Stderr, "pmemspec-lint: skipped edit (overlapping group): %s %s:%d\n",
						diags[i].Analyzer, diags[i].File, diags[i].Line)
				}
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	fmt.Fprintf(os.Stderr, "pmemspec-lint: %s\n", analysis.FormatStats(stats))
	fmt.Fprintf(os.Stderr, "pmemspec-lint: %d diagnostics, %d applicable edits in %d files, %d packages in %.2fs\n",
		len(diags), nEdits, len(edits), len(pkgs), elapsed.Seconds())
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runFix applies or renders the collected edits. With apply unset the
// files are left untouched (-diff alone previews; -fix -diff is the
// check mode, which still exits nonzero through the caller because the
// underlying diagnostics remain). It returns the primary edits that
// were dropped because their group overlapped an earlier-applied one.
func runFix(root string, edits map[string][]*analysis.SuggestedEdit, apply, showDiff bool) ([]*analysis.SuggestedEdit, error) {
	files := make([]string, 0, len(edits))
	for f := range edits {
		files = append(files, f)
	}
	sort.Strings(files)
	var allSkipped []*analysis.SuggestedEdit
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		out, applied, skipped, err := analysis.ApplyEditsDetailed(src, edits[file])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		allSkipped = append(allSkipped, skipped...)
		if showDiff {
			name := file
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			fmt.Print(analysis.Diff(name, src, out))
		}
		if apply {
			if err := os.WriteFile(file, out, 0o644); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "pmemspec-lint: %s: applied %d of %d edits (%d skipped by overlap)\n",
				file, len(applied), len(edits[file]), len(skipped))
		}
	}
	return allSkipped, nil
}

// selectAnalyzers filters the shipped analyzers by the -c flag. The
// optimization analyzers are addressable by name but never part of the
// default (no -c) set — their findings are rewrite opportunities, not
// discipline violations, so a clean default run stays meaningful.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	for _, a := range analysis.OptAnalyzers() {
		byName[a.Name] = a
	}
	valid := make([]string, 0, len(byName))
	for name := range byName {
		valid = append(valid, name)
	}
	sort.Strings(valid)
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
