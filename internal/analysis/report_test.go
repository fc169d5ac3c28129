package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{
			Rule: "rawoffset", Severity: SeverityWarning,
			File: "pkg/a.go", Line: 13, Col: 3,
			Message: "raw symmetric-heap offset arithmetic in pe.PutInt64",
			Fix:     "use shmem.AllocInt64Array",
		},
		{
			Rule: "rawoffset", Severity: SeverityWarning,
			File: "pkg/b.go", Line: 7, Col: 17,
			Message: "raw symmetric-heap offset arithmetic",
		},
		{
			Rule: "baddirective", Severity: SeverityError,
			File: "pkg/b.go", Line: 9, Col: 2,
			Message: "//actorvet:ignore names unknown rule(s) nosuchrule",
		},
	}
}

// TestTextReporterGolden pins the text format byte-for-byte.
func TestTextReporterGolden(t *testing.T) {
	var b strings.Builder
	if err := Report(&b, sampleDiags(), TextVerbose); err != nil {
		t.Fatal(err)
	}
	want := "pkg/a.go:13:3: warning: raw symmetric-heap offset arithmetic in pe.PutInt64 [rawoffset]\n" +
		"\tfix: use shmem.AllocInt64Array\n" +
		"pkg/b.go:7:17: warning: raw symmetric-heap offset arithmetic [rawoffset]\n" +
		"pkg/b.go:9:2: error: //actorvet:ignore names unknown rule(s) nosuchrule [baddirective]\n" +
		"3 finding(s)\n"
	if b.String() != want {
		t.Errorf("text report:\n%s\nwant:\n%s", b.String(), want)
	}

	b.Reset()
	if err := Report(&b, nil, Text); err != nil {
		t.Fatal(err)
	}
	if b.String() != "" {
		t.Errorf("empty run should print nothing, got %q", b.String())
	}
}

// TestSARIFReporterGolden pins the SARIF 2.1.0 document byte-for-byte
// against testdata/golden/sample.sarif — the format GitHub code scanning
// ingests, so any drift is a CI-integration break.
func TestSARIFReporterGolden(t *testing.T) {
	var b strings.Builder
	if err := Report(&b, sampleDiags(), SARIF); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden", "sample.sarif")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("sarif output drifted from %s:\n%s", golden, b.String())
	}

	// Structural invariants, independent of the golden bytes.
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("sarif output is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("version = %q, runs = %d; want 2.1.0 with one run", doc.Version, len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "actorvet" || len(run.Tool.Driver.Rules) != 2 || len(run.Results) != 3 {
		t.Fatalf("driver = %q with %d rules, %d results; want actorvet with 2 rules, 3 results",
			run.Tool.Driver.Name, len(run.Tool.Driver.Rules), len(run.Results))
	}
	if run.Results[0].Level != "warning" || run.Results[2].Level != "error" {
		t.Errorf("levels = %s, %s; want warning, error", run.Results[0].Level, run.Results[2].Level)
	}

	// The empty document is still a well-formed run (code scanning
	// rejects null results).
	b.Reset()
	if err := Report(&b, nil, SARIF); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"results": []`) {
		t.Errorf("empty sarif run should carry an empty results array:\n%s", b.String())
	}
}
