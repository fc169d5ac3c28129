package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

const fixtureRoot = "../../internal/analysis/testdata/src"

// allRules is the full shipped suite, mirrored here so the CLI tests
// fail loudly if a rule is dropped from the registry.
var allRules = []string{"rawoffset"}

func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = vetMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFixturesExitNonZero runs the CLI over every known-bad fixture and
// asserts exit code 1 with the right rule ID in the output.
func TestFixturesExitNonZero(t *testing.T) {
	for _, rule := range allRules {
		t.Run(rule, func(t *testing.T) {
			code, stdout, stderr := runVet(t, filepath.Join(fixtureRoot, rule))
			if code != 1 {
				t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stdout, "["+rule+"]") {
				t.Errorf("output does not name rule %s:\n%s", rule, stdout)
			}
			if !strings.Contains(stdout, "bad.go:") {
				t.Errorf("output does not position into bad.go:\n%s", stdout)
			}
		})
	}
}

// TestCleanExitsZero asserts a clean tree passes silently.
func TestCleanExitsZero(t *testing.T) {
	code, stdout, stderr := runVet(t, filepath.Join(fixtureRoot, "clean"))
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run should be silent, got:\n%s", stdout)
	}
}

// TestSARIFOutput asserts -format sarif emits a SARIF 2.1.0 run that
// code scanning can ingest.
func TestSARIFOutput(t *testing.T) {
	code, stdout, _ := runVet(t, "-format", "sarif", filepath.Join(fixtureRoot, "rawoffset"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name string `json:"name"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("sarif output invalid: %v\n%s", err, stdout)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 || doc.Runs[0].Tool.Driver.Name != "actorvet" {
		t.Fatalf("unexpected sarif shape:\n%s", stdout)
	}
	if len(doc.Runs[0].Results) == 0 {
		t.Fatal("sarif run carries no results")
	}
	for _, r := range doc.Runs[0].Results {
		if r.RuleID != "rawoffset" {
			t.Errorf("unexpected rule %s", r.RuleID)
		}
	}
}

// TestUnknownFormatExitsTwo asserts -format validation is a usage error;
// SARIF is the one machine format, so json is unknown too.
func TestUnknownFormatExitsTwo(t *testing.T) {
	for _, format := range []string{"xml", "json"} {
		code, _, stderr := runVet(t, "-format", format, ".")
		if code != 2 || !strings.Contains(stderr, "unknown format") {
			t.Fatalf("-format %s: exit = %d, stderr = %q; want 2 with unknown-format message", format, code, stderr)
		}
	}
}

// TestListRules asserts -list names every rule.
func TestListRules(t *testing.T) {
	code, stdout, _ := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, rule := range allRules {
		if !strings.Contains(stdout, rule) {
			t.Errorf("-list missing %s:\n%s", rule, stdout)
		}
	}
}

// TestBadPatternExitsTwo asserts load errors are usage errors, not
// findings.
func TestBadPatternExitsTwo(t *testing.T) {
	code, _, stderr := runVet(t, "no/such/dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
	}
}
