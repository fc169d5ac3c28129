package analysis

import (
	"sort"
)

// Run executes every rule of Rules over the program's requested
// packages, drops suppressed diagnostics, validates the suppression
// directives themselves (baddirective, staleignore), and returns the
// findings sorted by file, line, column, rule.
func Run(prog *Program) []Diagnostic {
	knownRules := map[string]bool{ruleBadDirective: true, ruleStaleIgnore: true}
	for _, r := range Rules {
		knownRules[r.Name] = true
	}

	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		idx := buildIgnoreIndex(pkg)
		for _, r := range Rules {
			r.Run(&Pass{
				Pkg:  pkg,
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
		idx.check(knownRules, func(d Diagnostic) { diags = append(diags, d) })
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
