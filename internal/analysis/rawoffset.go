package analysis

import (
	"fmt"
	"go/ast"
	"go/token"

	"actorprof/internal/shmem"
)

// RawOffset flags raw symmetric-heap offset arithmetic: RMA calls whose
// byte-offset argument is computed inline from bare numeric literals
// (off+8*i and friends) instead of going through the typed Int64Array
// accessors. Hand-rolled offsets bypass Int64Array's bounds checks and
// silently alias neighboring symmetric objects on every PE; the heap
// itself only catches the overrun that leaves the last Malloc's break
// (there an access crashes the PE that made it). The RMA entry points
// and their offset-parameter positions come from shmem.RawOffsetMethods.
//
// Arithmetic over named constants (base + wordBytes*i) passes clean: the
// name expresses the layout's intent, and it is exactly what -fix
// rewrites bare literals into. The shmem package itself (the typed
// layer's implementation) is exempt; other deliberate low-level code
// (the conveyor transport owns its slot layout) carries
// //actorvet:ignore-file directives.
type RawOffset struct{}

// Name implements Analyzer.
func (RawOffset) Name() string { return "rawoffset" }

// Doc implements Analyzer.
func (RawOffset) Doc() string {
	return "raw symmetric-heap offset arithmetic (bare numeric literals) passed to an RMA call; bypasses the typed Int64Array bounds checks"
}

const rawOffsetFix = "use shmem.AllocInt64Array and its Get/Set/PutRemote/GetRemote/AddRemote/WaitUntil accessors, or name the scale factors (-fix rewrites literals to named constants)"

// Run implements Analyzer.
func (a RawOffset) Run(pass *Pass) {
	if pathHasSuffix(pass.Pkg.Path, "internal/shmem") {
		return // the typed layer's own implementation
	}
	methods := shmem.RawOffsetMethods()
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgShmem {
				return true
			}
			argIdx, isRMA := methods[fn.Name()]
			if !isRMA || argIdx >= len(call.Args) {
				return true
			}
			offset := call.Args[argIdx]
			lits := offsetLiterals(offset)
			if len(lits) == 0 {
				return true
			}
			label := fn.Name()
			if recv, _, ok := callee(call); ok && recv != nil {
				if key := exprKey(recv); key != "" {
					label = key + "." + fn.Name()
				}
			}
			pass.ReportWithEdits(offset.Pos(), rawOffsetFix, a.constEdits(pass, file, lits),
				"raw symmetric-heap offset arithmetic in %s bypasses the typed Int64Array bounds checks", label)
			return true
		})
	}
}

// offsetLiterals returns the bare integer literals of an inline offset
// computation: e must contain an arithmetic binary expression, and the
// returned literals are its hand-rolled scale factors. A bare
// identifier, named-constant arithmetic (base + wordBytes*i), field, or
// call result (a.Offset()) yields none and passes clean.
func offsetLiterals(e ast.Expr) []*ast.BasicLit {
	arithmetic := false
	var lits []*ast.BasicLit
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
				token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
				arithmetic = true
			}
		case *ast.BasicLit:
			if n.Kind == token.INT {
				lits = append(lits, n)
			}
		}
		return true
	})
	if !arithmetic {
		return nil
	}
	return lits
}

// constEdits builds the -fix rewrite: each bare literal becomes a named
// constant, declared once after the file's imports (unless the package
// already declares the name).
func (a RawOffset) constEdits(pass *Pass, file *ast.File, lits []*ast.BasicLit) []TextEdit {
	var edits []TextEdit
	insertAt := pass.Pkg.Fset.Position(constInsertionPoint(file)).Offset
	fname := pass.Pkg.Fset.Position(file.Pos()).Filename
	for _, lit := range lits {
		name := scaleConstName(lit.Value)
		start := pass.Pkg.Fset.Position(lit.Pos()).Offset
		end := pass.Pkg.Fset.Position(lit.End()).Offset
		edits = append(edits, TextEdit{File: fname, Offset: start, End: end, NewText: name})
		if pass.Pkg.Types != nil && pass.Pkg.Types.Scope().Lookup(name) != nil {
			continue // the package already names this scale
		}
		edits = append(edits, TextEdit{
			File: fname, Offset: insertAt, End: insertAt,
			NewText: fmt.Sprintf("\n\nconst %s = %s // named by actorvet -fix; document the layout this scales", name, lit.Value),
		})
	}
	return edits
}

// scaleConstName names the constant for a literal scale factor: 8 (the
// symmetric heap's word size) becomes wordBytes, anything else offScaleN.
func scaleConstName(value string) string {
	if value == "8" {
		return "wordBytes"
	}
	return "offScale" + value
}

// constInsertionPoint returns where a const declaration belongs: after
// the import declaration, or after the package clause when there is none.
func constInsertionPoint(file *ast.File) token.Pos {
	pos := file.Name.End()
	for _, d := range file.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
			pos = gd.End()
		}
	}
	return pos
}
