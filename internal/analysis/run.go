package analysis

import (
	"sort"
)

// Run executes every rule over the program's requested packages, drops
// suppressed diagnostics, validates the suppression directives
// themselves (baddirective, staleignore), and returns the findings
// sorted by file, line, column, rule.
func Run(prog *Program, rules []Rule) []Diagnostic {
	knownRules := make(map[string]bool)
	for _, r := range Rules {
		knownRules[r.Name] = true
	}
	knownRules[ruleBadDirective] = true
	knownRules[ruleStaleIgnore] = true
	activeRules := make(map[string]bool, len(rules))
	for _, r := range rules {
		activeRules[r.Name] = true
	}
	fullSuite := len(activeRules) >= len(Rules)

	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		idx := buildIgnoreIndex(pkg)
		for _, r := range rules {
			r.Run(&Pass{
				Pkg:  pkg,
				Prog: prog,
				rule: r,
				sink: func(d Diagnostic) {
					if !idx.suppressed(d) {
						diags = append(diags, d)
					}
				},
			})
		}
		// Directive hygiene. These bypass suppression deliberately: a
		// stale wildcard directive would otherwise suppress its own
		// staleness warning.
		sink := func(d Diagnostic) { diags = append(diags, d) }
		idx.validate(knownRules, sink)
		idx.reportStale(activeRules, fullSuite, sink)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags
}
