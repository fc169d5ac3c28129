// Package analysis is actorvet's static-analysis framework: a small,
// stdlib-only (go/ast, go/parser, go/types) analogue of
// golang.org/x/tools/go/analysis, purpose-built to machine-check the
// FA-BSP/SPMD programming disciplines that this repository's runtime
// layers (shmem, conveyor, actor, trace) cannot check as they run —
// whose violations the ActorProf paper can only show after the fact,
// as corrupted MAIN/PROC/COMM profiles or silently wrong values.
//
// The framework loads whole programs from go-style patterns (./...):
// every requested package plus its module-internal dependency closure is
// type-checked in dependency order against a shared types.Info, so
// rules see real cross-package objects in Uses/Defs/Selections — never
// stubs. On top of the loader sit a call graph, a handler finder that
// resolves every registered batch handler, interprocedural dataflow
// summaries, and a per-function taint engine that the lifetime rule
// (escapingview) consumes. Run collects position-tagged Diagnostics,
// honors //actorvet:ignore suppression directives (validating them, and
// warning when they suppress nothing), and Report renders text or SARIF.
// The shipped rules are the Rules table; each one's Doc explains the
// invariant and ties it to the paper's region semantics (see DESIGN.md
// §11).
package analysis

import (
	"fmt"
	"go/token"
)

// Severity classifies a diagnostic.
type Severity string

// Severity levels. Errors are invariant violations that deadlock or
// corrupt a run; warnings are discipline violations that degrade
// profiles or bypass safety rails.
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
	// Prog is the whole program the package was loaded into: the full
	// dependency closure, shared type info, call graph, and
	// interprocedural summaries.
	Prog *Program

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
