package analysis

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// loc is an expected finding position within a fixture's bad.go.
type loc struct{ line, col int }

// analyzerGolden maps each rule to the exact findings its fixture must
// produce — rule IDs and positions are part of the contract (README
// documents the directive placement relative to them).
var analyzerGolden = map[string][]loc{
	"rawoffset": {{7, 17}, {8, 23}, {9, 21}, {10, 32}},
}

func loadFixture(t *testing.T, dir string) *Program {
	t.Helper()
	prog, err := Load([]string{filepath.Join("testdata", "src", dir)})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(prog.Packages) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", dir, len(prog.Packages))
	}
	return prog
}

// TestAnalyzerGolden runs the suite over each rule's known-bad fixture
// and asserts the exact rule IDs and positions.
func TestAnalyzerGolden(t *testing.T) {
	for rule, want := range analyzerGolden {
		t.Run(rule, func(t *testing.T) {
			diags := Run(loadFixture(t, rule))
			wantFile := filepath.Join("testdata", "src", rule, "bad.go")
			if len(diags) != len(want) {
				t.Fatalf("got %d findings, want %d: %+v", len(diags), len(want), diags)
			}
			for i, d := range diags {
				if d.Rule != rule {
					t.Errorf("finding %d: rule = %s, want %s", i, d.Rule, rule)
				}
				if d.File != wantFile {
					t.Errorf("finding %d: file = %s, want %s", i, d.File, wantFile)
				}
				if d.Line != want[i].line || d.Col != want[i].col {
					t.Errorf("finding %d: at %d:%d, want %d:%d (%s)",
						i, d.Line, d.Col, want[i].line, want[i].col, d.Message)
				}
				if d.Message == "" || d.Fix == "" {
					t.Errorf("finding %d: empty message or fix hint: %+v", i, d)
				}
			}
		})
	}
}

// TestFullSuiteOnFixtures guards against cross-rule noise: the complete
// suite over each bad fixture must report exactly the fixture's own
// rule's findings and nothing else.
func TestFullSuiteOnFixtures(t *testing.T) {
	for rule, want := range analyzerGolden {
		t.Run(rule, func(t *testing.T) {
			diags := Run(loadFixture(t, rule))
			if len(diags) != len(want) {
				t.Fatalf("full suite: got %d findings, want %d: %+v", len(diags), len(want), diags)
			}
			for _, d := range diags {
				if d.Rule != rule {
					t.Errorf("full suite: unexpected rule %s at %s", d.Rule, d.Position())
				}
			}
		})
	}
}

// TestCleanFixture asserts zero findings on the well-behaved program.
func TestCleanFixture(t *testing.T) {
	if diags := Run(loadFixture(t, "clean")); len(diags) != 0 {
		t.Fatalf("clean fixture produced findings: %+v", diags)
	}
}

// TestIgnoreDirectives asserts the three suppression forms work, a
// mismatched rule name does not over-suppress, and that same mismatched
// directive — which therefore suppressed nothing — is itself reported
// stale.
func TestIgnoreDirectives(t *testing.T) {
	diags := Run(loadFixture(t, "ignored"))
	want := []struct {
		rule string
		at   loc
	}{
		{"rawoffset", loc{22, 17}},
		{"staleignore", loc{22, 30}},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d: %+v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		if d.Rule != want[i].rule || d.Line != want[i].at.line || d.Col != want[i].at.col {
			t.Errorf("finding %d = %s at %d:%d, want %s at %d:%d",
				i, d.Rule, d.Line, d.Col, want[i].rule, want[i].at.line, want[i].at.col)
		}
	}
}

// TestDirectiveEdgeCases pins the directive checker's behavior: a
// directive above a multi-line statement covers its whole extent, a
// directive above a block suppresses findings inside it, an unknown rule
// name is a loud baddirective error (and suppresses nothing), and
// directives that suppress nothing are staleignore warnings.
func TestDirectiveEdgeCases(t *testing.T) {
	diags := Run(loadFixture(t, "directives"))
	want := []struct {
		rule string
		at   loc
		sev  Severity
	}{
		{"rawoffset", loc{22, 17}, SeverityWarning}, // unknown-rule directive must not suppress
		{"baddirective", loc{22, 30}, SeverityError},
		{"staleignore", loc{26, 25}, SeverityWarning},
		{"staleignore", loc{30, 13}, SeverityWarning},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d: %+v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		if d.Rule != want[i].rule || d.Line != want[i].at.line || d.Col != want[i].at.col || d.Severity != want[i].sev {
			t.Errorf("finding %d = %s(%s) at %d:%d, want %s(%s) at %d:%d",
				i, d.Rule, d.Severity, d.Line, d.Col, want[i].rule, want[i].sev, want[i].at.line, want[i].at.col)
		}
	}
}

// TestSeverities pins the severity of every rule: rawoffset is a
// discipline rule, a warning. (The directive checks' severities are
// pinned by TestDirectiveEdgeCases.)
func TestSeverities(t *testing.T) {
	want := map[string]Severity{
		"rawoffset": SeverityWarning,
	}
	if len(Rules) != len(want) {
		t.Fatalf("suite has %d rules, want %d", len(Rules), len(want))
	}
	for _, r := range Rules {
		if r.Severity != want[r.Name] {
			t.Errorf("%s: severity %s, want %s", r.Name, r.Severity, want[r.Name])
		}
	}
}

// TestLoadPatterns covers the loader's go-tool pattern semantics.
func TestLoadPatterns(t *testing.T) {
	// ./... from this package skips testdata, finding only the package
	// itself as requested; its module-internal imports load as
	// dependencies.
	prog, err := Load([]string{"./..."})
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(prog.Packages) != 1 || prog.Packages[0].Name != "analysis" {
		t.Fatalf("Load ./... = %d requested packages (first %q), want just analysis",
			len(prog.Packages), prog.Packages[0].Name)
	}
	if prog.Packages[0].Path != "actorprof/internal/analysis" {
		t.Errorf("import path = %q, want actorprof/internal/analysis", prog.Packages[0].Path)
	}
	if len(prog.All) <= len(prog.Packages) {
		t.Errorf("dependency closure did not grow: %d packages in All", len(prog.All))
	}

	// An explicit testdata subtree loads all fixtures (directives, clean,
	// and ignored ride along with one per rule).
	prog, err = Load([]string{filepath.Join("testdata", "src") + "/..."})
	if err != nil {
		t.Fatalf("Load testdata/src/...: %v", err)
	}
	if want := len(analyzerGolden) + 3; len(prog.Packages) != want {
		t.Fatalf("got %d fixture packages, want %d", len(prog.Packages), want)
	}

	// Naming a Go-free directory explicitly is an error.
	if _, err := Load([]string{filepath.Join("testdata", "src")}); err == nil {
		t.Fatal("Load of a directory without Go files should fail")
	}
}

// TestLoaderCrossPackageTypeInfo asserts the loader produces real,
// complete cross-package type information: fixture selectors resolve to
// objects of the actual runtime packages, never stubs.
func TestLoaderCrossPackageTypeInfo(t *testing.T) {
	prog := loadFixture(t, "rawoffset")
	shmemPkg := prog.PackageOf("actorprof/internal/shmem")
	if shmemPkg == nil {
		t.Fatal("dependency actorprof/internal/shmem was not loaded")
	}
	if shmemPkg.Types == nil || !shmemPkg.Types.Complete() {
		t.Fatal("shmem dependency is not a completely type-checked package")
	}
	if shmemPkg.Types.Scope().Lookup("PE") == nil {
		t.Fatal("shmem.PE not found in the dependency's scope")
	}
	// Every method selection in the fixture must resolve to a *types.Func
	// with a real defining package.
	resolved := 0
	for _, sel := range prog.Packages[0].Info.Selections {
		if sel.Obj() != nil && sel.Obj().Pkg() != nil {
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatal("no resolved selections in fixture type info")
	}
}

// TestLoadRejectsBrokenPackage asserts the loader is strict: a package
// that does not type-check is an error, not a silently half-analyzed
// package.
func TestLoadRejectsBrokenPackage(t *testing.T) {
	dir, err := os.MkdirTemp("testdata", "broken-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	src := "package broken\n\nfunc f() { undefinedSymbol() }\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load([]string{dir}); err == nil {
		t.Fatal("Load of a non-type-checking package should fail")
	}
}

// TestWholeRepoAnalysisBudget runs the complete suite over the whole
// repository and asserts (a) the repo is actorvet-clean and (b) the
// whole-program analysis fits the 10-second budget the CI gate enforces.
func TestWholeRepoAnalysisBudget(t *testing.T) {
	start := time.Now()
	prog, err := Load([]string{filepath.Join("..", "..") + "/..."})
	if err != nil {
		t.Fatalf("loading whole repo: %v", err)
	}
	diags := Run(prog)
	elapsed := time.Since(start)
	for _, d := range diags {
		t.Errorf("repo is not actorvet-clean: %s: %s [%s]", d.Position(), d.Message, d.Rule)
	}
	if elapsed > 10*time.Second {
		t.Errorf("whole-repo analysis took %v, budget is 10s", elapsed)
	}
	t.Logf("whole-repo analysis: %d packages in %v", len(prog.Packages), elapsed)
}
