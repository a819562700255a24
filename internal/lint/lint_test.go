package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specinfer/internal/lint"
)

const suppressedSrc = `package fixture

func Cmp(a, b float64) bool {
	//lint:ignore floateq demonstrating suppression on the line above
	if a == b {
		return true
	}
	return a != b //lint:ignore floateq same-line directive
}
`

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	if diags := runFixture(t, "specinfer/internal/fixture", suppressedSrc, lint.FloatEqAnalyzer); len(diags) != 0 {
		t.Fatalf("directives should suppress both findings, got %v", diags)
	}
}

const wrongAnalyzerSrc = `package fixture

func Cmp(a, b float64) bool {
	//lint:ignore errcheck directive names the wrong analyzer
	return a == b
}
`

func TestIgnoreDirectiveIsPerAnalyzer(t *testing.T) {
	diags := runFixture(t, "specinfer/internal/fixture", wrongAnalyzerSrc, lint.FloatEqAnalyzer)
	if len(diags) != 1 || diags[0].Analyzer != "floateq" {
		t.Fatalf("a directive for another analyzer must not suppress floateq, got %v", diags)
	}
}

const malformedSrc = `package fixture

func Cmp(a, b float64) bool {
	//lint:ignore floateq
	return a == b
}
`

func TestMalformedDirectiveReported(t *testing.T) {
	diags := runFixture(t, "specinfer/internal/fixture", malformedSrc, lint.FloatEqAnalyzer)
	var sawLint, sawFloatEq bool
	for _, d := range diags {
		switch d.Analyzer {
		case "lint":
			sawLint = true
		case "floateq":
			sawFloatEq = true
		}
	}
	if !sawLint {
		t.Errorf("a reason-less directive must be reported as malformed, got %v", diags)
	}
	if !sawFloatEq {
		t.Errorf("a malformed directive must not suppress the finding, got %v", diags)
	}
}

const commaListSrc = `package fixture

import "os"

func Same(a, b float64) bool {
	//lint:ignore floateq,nondeterminism one directive covers both findings on the next line
	return a == b && os.Getenv("SPECINFER_MODE") != ""
}
`

func TestIgnoreDirectiveCommaList(t *testing.T) {
	diags := runFixture(t, "specinfer/internal/fixture", commaListSrc,
		lint.FloatEqAnalyzer, lint.NondeterminismAnalyzer)
	if len(diags) != 0 {
		t.Fatalf("a comma-separated directive must suppress every named analyzer, got %v", diags)
	}
}

const staleSrc = `package fixture

func Max(a, b float64) float64 {
	//lint:ignore floateq nothing on the next line compares floats anymore
	if a > b {
		return a
	}
	return b
}
`

func TestStaleSuppressionReported(t *testing.T) {
	diags := runFixture(t, "specinfer/internal/fixture", staleSrc, lint.FloatEqAnalyzer)
	if len(diags) != 1 {
		t.Fatalf("want exactly the stale-suppression diagnostic, got %v", diags)
	}
	d := diags[0]
	if d.Analyzer != "lint" || !strings.Contains(d.Message, "stale suppression") {
		t.Fatalf("unexpected diagnostic %v", d)
	}
	if d.Pos.Line != 4 {
		t.Fatalf("staleness should anchor at the directive's line 4, got %d", d.Pos.Line)
	}
}

func TestStaleJudgedAgainstRunSet(t *testing.T) {
	// wrongAnalyzerSrc carries an errcheck directive over a floateq
	// finding. With errcheck excluded from the run, the directive is not
	// judged (TestIgnoreDirectiveIsPerAnalyzer); once errcheck runs and
	// suppresses nothing, the same directive is stale.
	diags := runFixture(t, "specinfer/internal/fixture", wrongAnalyzerSrc,
		lint.FloatEqAnalyzer, lint.ErrCheckAnalyzer)
	var stale, floateq bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "stale suppression"):
			stale = true
		case d.Analyzer == "floateq":
			floateq = true
		}
	}
	if !stale {
		t.Errorf("an unused directive for a running analyzer must be reported stale, got %v", diags)
	}
	if !floateq {
		t.Errorf("the floateq finding must survive the wrong-analyzer directive, got %v", diags)
	}
}

func TestUsedSuppressionIsNotStale(t *testing.T) {
	diags := runFixture(t, "specinfer/internal/fixture", suppressedSrc, lint.FloatEqAnalyzer)
	for _, d := range diags {
		if d.Analyzer == "lint" {
			t.Fatalf("a directive that suppresses a finding must not be stale, got %v", d)
		}
	}
}

func TestDiagnosticPositions(t *testing.T) {
	src := `package fixture

func Cmp(a, b float64) bool {
	return a == b
}
`
	diags := runFixture(t, "specinfer/internal/fixture", src, lint.FloatEqAnalyzer)
	if len(diags) != 1 {
		t.Fatalf("want 1 finding, got %v", diags)
	}
	d := diags[0]
	if d.Pos.Line != 4 || d.Pos.Column != 11 {
		t.Fatalf("finding should anchor at 4:11 (the == operator), got %d:%d", d.Pos.Line, d.Pos.Column)
	}
	if d.Pos.Filename != "fixture.go" {
		t.Fatalf("finding should carry the filename, got %q", d.Pos.Filename)
	}
}

// TestLoadModule exercises the directory loader end-to-end on a scratch
// module: pattern expansion, test-file exclusion, module-internal import
// resolution, and analyzer scoping by import path.
func TestLoadModule(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.test\n\ngo 1.22\n")
	write("internal/num/num.go", `package num

// Eq compares exactly; the analyzer must flag it.
func Eq(a, b float64) bool { return a == b }
`)
	write("internal/num/num_test.go", `package num

import "math/rand"

// Test files are out of scope: this rand import must not be loaded.
func helper() int { return rand.Intn(2) }
`)
	write("app/app.go", `package app

import "example.test/internal/num"

func Same(a, b float64) bool { return num.Eq(a, b) }
`)

	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("want 2 packages, got %d", len(pkgs))
	}
	if pkgs[0].Path != "example.test/app" || pkgs[1].Path != "example.test/internal/num" {
		t.Fatalf("unexpected package paths %q, %q", pkgs[0].Path, pkgs[1].Path)
	}

	diags := lint.Run(pkgs, lint.Analyzers())
	if len(diags) != 1 {
		t.Fatalf("want exactly the floateq finding in num.go, got %v", diags)
	}
	d := diags[0]
	if d.Analyzer != "floateq" || filepath.Base(d.Pos.Filename) != "num.go" || d.Pos.Line != 4 {
		t.Fatalf("unexpected finding %v", d)
	}

	// A non-recursive pattern loads a single directory.
	one, err := lint.Load(dir, "./app")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Path != "example.test/app" {
		t.Fatalf("pattern ./app should load exactly the app package, got %v", one)
	}
}

// writeModule lays out a scratch module rooted at a temp dir and returns
// the root; files maps relative path to content.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadReportsParseErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":         "module example.test\n\ngo 1.22\n",
		"broken/bad.go":  "package broken\n\nfunc mangled( {\n",
		"broken/good.go": "package broken\n\nfunc fine() {}\n",
	})
	if _, err := lint.Load(dir, "./..."); err == nil {
		t.Fatal("an unparseable file must fail the load, got nil error")
	}
}

func TestLoadReportsTypeErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     "module example.test\n\ngo 1.22\n",
		"app/app.go": "package app\n\nfunc F() int { return undefinedIdent }\n",
	})
	_, err := lint.Load(dir, "./...")
	if err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("a type-check failure must surface as a type-checking error, got %v", err)
	}
}

// TestLoadHonorsBuildConstraints: per-architecture variants of one
// declaration (a //go:build line, or a GOARCH file-name suffix) must not
// be type-checked together, or every such package fails to load.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":         "module example.test\n\ngo 1.22\n",
		"arch/never.go":  "//go:build ignore\n\npackage arch\n\nconst n = 1\n",
		"arch/always.go": "package arch\n\nconst n = 2\n",
		"arch/extra.go":  "package arch\n",
		"arch/y_wasm.go": "package arch\n\nconst n = 3\n",
	})
	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("load with build-constrained variants failed: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 2 {
		t.Fatalf("loaded %d packages, want 1 holding always.go and extra.go", len(pkgs))
	}
}

// TestRepositoryIsLintClean runs the full suite over this repository —
// the same gate CI applies via cmd/specinferlint.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is not short")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, d := range lint.Run(pkgs, lint.Analyzers()) {
		t.Errorf("%v", d)
	}
}
