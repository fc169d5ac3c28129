package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Format selects how Report renders a diagnostic list.
type Format int

const (
	// Text is one finding per line in the familiar
	// file:line:col: severity: message [rule] shape, followed by a
	// summary count.
	Text Format = iota
	// TextVerbose is Text with each finding's fix hint on a second line.
	TextVerbose
	// SARIF is a SARIF 2.1.0 document, the interchange format GitHub
	// code scanning ingests to surface findings as PR annotations: one
	// run, one driver (actorvet), one rule entry per rule that actually
	// fired, results referencing rules by ID.
	SARIF
)

// Report renders diags to w in the given format.
func Report(w io.Writer, diags []Diagnostic, format Format) error {
	if format == SARIF {
		return reportSARIF(w, diags)
	}
	for _, d := range diags {
		if _, err := fmt.Fprintf(w, "%s: %s: %s [%s]\n", d.Position(), d.Severity, d.Message, d.Rule); err != nil {
			return err
		}
		if format == TextVerbose && d.Fix != "" {
			if _, err := fmt.Fprintf(w, "\tfix: %s\n", d.Fix); err != nil {
				return err
			}
		}
	}
	if len(diags) > 0 {
		if _, err := fmt.Fprintf(w, "%d finding(s)\n", len(diags)); err != nil {
			return err
		}
	}
	return nil
}

// The subset of SARIF 2.1.0 Report emits. Field order within the
// structs is the serialization order, so the output is byte-stable for
// golden tests.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func reportSARIF(w io.Writer, diags []Diagnostic) error {
	ruleDocs := map[string]string{
		ruleBadDirective: "//actorvet:ignore directive names a rule that does not exist",
		ruleStaleIgnore:  "//actorvet:ignore directive suppresses nothing",
	}
	for _, r := range Rules {
		ruleDocs[r.Name] = r.Doc
	}

	seen := make(map[string]bool)
	rules := []sarifRule{}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		if !seen[d.Rule] {
			seen[d.Rule] = true
			rules = append(rules, sarifRule{
				ID:               d.Rule,
				ShortDescription: sarifMessage{Text: ruleDocs[d.Rule]},
			})
		}
		msg := d.Message
		if d.Fix != "" {
			msg += " (fix: " + d.Fix + ")"
		}
		// SARIF's level vocabulary includes both of actorvet's severities.
		results = append(results, sarifResult{
			RuleID:  d.Rule,
			Level:   string(d.Severity),
			Message: sarifMessage{Text: msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: d.File},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "actorvet",
				InformationURI: "https://github.com/actorprof/actorprof",
				Rules:          rules,
			}},
			Results: results,
		}},
	})
}
