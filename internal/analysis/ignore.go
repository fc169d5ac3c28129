package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Suppression directives:
//
//	//actorvet:ignore rule[,rule...]      suppress on this line / statement
//	//actorvet:ignore                     suppress every rule likewise
//	//actorvet:ignore-file rule[,rule...] suppress for the whole file
//
// The line-scoped form works both as a trailing comment on the offending
// line and as a comment on the line directly above it (the gofmt-friendly
// placement). When the line it governs starts a multi-line statement or
// declaration, the directive covers the statement's whole extent —
// putting one above a multi-line if/for/composite-literal suppresses
// findings anywhere inside it (block-scoped suppression).
//
// Directives are themselves checked: a directive naming a rule that does
// not exist is a baddirective error (a typo would otherwise silently
// suppress nothing), and a directive that suppressed no finding in the
// run is a staleignore warning (the violation it justified is gone — so
// should the directive). Deliberate violations — fixtures, the conveyor
// transport's raw offset arithmetic — carry directives so that actorvet
// stays zero-findings on the repository itself.

const (
	ignoreDirective     = "//actorvet:ignore"
	ignoreFileDirective = "//actorvet:ignore-file"
)

// Names of the directive-checking pseudo-rules. They are not in Rules —
// Run emits them while validating the ignore index — but they occupy the
// same rule namespace, so a directive may name them.
const (
	ruleBadDirective = "baddirective"
	ruleStaleIgnore  = "staleignore"
)

// directiveEntry is one parsed //actorvet:ignore[-file] comment.
type directiveEntry struct {
	file     string
	fileWide bool
	// startLine..endLine is the covered line range (line-scoped only).
	startLine, endLine int
	// rules are the named rules; the empty string means "all rules".
	rules map[string]bool
	// position locates the directive for baddirective/staleignore
	// diagnostics.
	position token.Position
	// used records whether the directive suppressed at least one finding.
	used bool
}

// ignoreIndex records every directive in a package.
type ignoreIndex struct {
	entries []*directiveEntry
}

// buildIgnoreIndex scans every comment in the package for directives.
// Statement extents come from the syntax: a directive that governs the
// first line of a multi-line statement covers through its last line.
func buildIgnoreIndex(pkg *Package) *ignoreIndex {
	idx := &ignoreIndex{}
	for _, f := range pkg.Files {
		extents := stmtExtents(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx.addComment(pkg, extents, c)
			}
		}
	}
	return idx
}

// stmtExtents maps each line that starts a statement or declaration to
// the last line of the longest such node starting there.
func stmtExtents(fset *token.FileSet, f *ast.File) map[int]int {
	extents := make(map[int]int)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, ast.Decl:
			start := fset.Position(n.Pos()).Line
			end := fset.Position(n.End()).Line
			if end > extents[start] {
				extents[start] = end
			}
		}
		return true
	})
	return extents
}

func (idx *ignoreIndex) addComment(pkg *Package, extents map[int]int, c *ast.Comment) {
	text := strings.TrimSpace(c.Text)
	pos := pkg.Fset.Position(c.Pos())
	if rest, ok := cutDirective(text, ignoreFileDirective); ok {
		idx.entries = append(idx.entries, &directiveEntry{
			file:     pos.Filename,
			fileWide: true,
			rules:    parseRules(rest),
			position: pos,
		})
		return
	}
	if rest, ok := cutDirective(text, ignoreDirective); ok {
		// Cover the directive's own line (trailing placement), the next
		// line (comment-above placement), and — when either of those
		// lines opens a multi-line statement — that statement's full
		// extent.
		end := pos.Line + 1
		if e := extents[pos.Line]; e > end {
			end = e
		}
		if e := extents[pos.Line+1]; e > end {
			end = e
		}
		idx.entries = append(idx.entries, &directiveEntry{
			file:      pos.Filename,
			startLine: pos.Line,
			endLine:   end,
			rules:     parseRules(rest),
			position:  pos,
		})
	}
}

// cutDirective matches text against the directive followed by an
// argument list, end of comment, or whitespace — so that
// "//actorvet:ignore-file" is not mistaken for "//actorvet:ignore" with
// argument "-file".
func cutDirective(text, directive string) (rest string, ok bool) {
	if !strings.HasPrefix(text, directive) {
		return "", false
	}
	rest = text[len(directive):]
	if rest == "" {
		return "", true
	}
	if rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

func parseRules(args string) map[string]bool {
	set := make(map[string]bool)
	if args == "" {
		set[""] = true // all rules
		return set
	}
	// Anything after the rule list (e.g. a prose justification) is
	// ignored: "//actorvet:ignore rawoffset transport owns the layout".
	args, _, _ = strings.Cut(args, " ")
	for _, r := range strings.Split(args, ",") {
		if r = strings.TrimSpace(r); r != "" {
			set[r] = true
		}
	}
	return set
}

// suppressed reports whether d is covered by a directive, marking the
// matching directive as used.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	hit := false
	for _, e := range idx.entries {
		if e.file != d.File || !matchRules(e.rules, d.Rule) {
			continue
		}
		if e.fileWide || (d.Line >= e.startLine && d.Line <= e.endLine) {
			e.used = true
			hit = true
			// Keep scanning: overlapping directives should all count as
			// used, or a redundant one would be falsely reported stale.
		}
	}
	return hit
}

func matchRules(set map[string]bool, rule string) bool {
	return set != nil && (set[""] || set[rule])
}

// check emits a baddirective diagnostic for each directive that names
// a rule outside knownRules (the full rule namespace: every shipped rule
// plus the pseudo-rules), and a staleignore diagnostic for each other
// directive that suppressed nothing.
func (idx *ignoreIndex) check(knownRules map[string]bool, sink func(Diagnostic)) {
	for _, e := range idx.entries {
		var bad []string
		for r := range e.rules {
			if r != "" && !knownRules[r] {
				bad = append(bad, r)
			}
		}
		d := Diagnostic{File: e.position.Filename, Line: e.position.Line, Col: e.position.Column}
		switch {
		case len(bad) > 0:
			sort.Strings(bad)
			d.Rule, d.Severity = ruleBadDirective, SeverityError
			d.Message = "//actorvet:ignore names unknown rule(s) " + strings.Join(bad, ", ") +
				"; a typo here silently suppresses nothing — fix the rule name or delete the directive"
		case !e.used:
			d.Rule, d.Severity = ruleStaleIgnore, SeverityWarning
			d.Message = "//actorvet:ignore directive suppresses nothing; the violation it justified is gone — delete the directive"
		default:
			continue
		}
		sink(d)
	}
}
