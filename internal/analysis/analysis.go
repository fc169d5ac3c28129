// Package analysis is actorvet's static-analysis framework: a small,
// stdlib-only (go/ast, go/parser, go/types) analogue of
// golang.org/x/tools/go/analysis, for what this repository's runtime
// cannot check as it runs. Its one rule, rawoffset, flags hand-rolled
// symmetric-heap offsets, which silently alias a neighbouring object;
// the FA-BSP contract itself (matched collectives, no waiting in a
// handler, Send after Done) is checked by the runtime (DESIGN.md §5).
//
// The framework loads whole programs from go-style patterns (./...):
// every requested package plus its module-internal dependency closure is
// type-checked in dependency order against a shared types.Info, so
// rules see real cross-package objects in Uses/Defs/Selections — never
// stubs. Run collects position-tagged Diagnostics, honors
// //actorvet:ignore suppression directives (validating them, and
// warning when they suppress nothing), and Report renders text or SARIF.
// The shipped rules are the Rules table; each one's Doc explains the
// invariant (see DESIGN.md §11).
package analysis

import (
	"fmt"
	"go/token"
)

// Severity classifies a diagnostic.
type Severity string

// Severity levels. An error is a directive naming an unknown rule,
// which silently suppresses nothing; warnings are discipline violations
// that bypass safety rails, and directives that suppress nothing.
const (
	SeverityError   Severity = "error"
	SeverityWarning Severity = "warning"
)

// Diagnostic is one finding: a rule violation at a source position.
type Diagnostic struct {
	// Rule is the rule's name (the stable rule ID).
	Rule string
	// Severity is error or warning.
	Severity Severity
	// File is the path as loaded (relative to the working directory
	// when the patterns were relative).
	File string
	// Line and Col are 1-based.
	Line int
	Col  int
	// Message states the violation.
	Message string
	// Fix, when non-empty, hints at the remedy.
	Fix string
}

// Position renders the file:line:col prefix.
func (d Diagnostic) Position() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

// Rule is one actorvet check: its stable ID, the invariant it guards,
// the severity of a violation, and the function that inspects one
// package and reports through the pass.
type Rule struct {
	Name     string
	Doc      string
	Severity Severity
	Run      func(pass *Pass)
}

// Pass carries one (package, rule) execution.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package

	rule Rule
	sink func(Diagnostic)
}

// Report records a finding at pos with a fix hint (may be empty).
func (p *Pass) Report(pos token.Pos, fix, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.sink(Diagnostic{
		Rule:     p.rule.Name,
		Severity: p.rule.Severity,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}
