package analysis

import (
	"go/ast"
	"go/token"

	"actorprof/internal/shmem"
)

const rawOffsetFix = "use shmem.AllocInt64Array and its Get/Set/PutRemote/GetRemote/AddRemote/WaitUntil accessors, or name the scale factors as constants"

// runRawOffset flags raw symmetric-heap offset arithmetic: RMA calls
// whose byte-offset argument is computed inline from bare numeric
// literals (off+8*i and friends) instead of going through the typed
// Int64Array accessors. Hand-rolled offsets bypass Int64Array's bounds
// checks and silently alias neighboring symmetric objects on every PE;
// the heap itself only catches the overrun that leaves the last Malloc's
// break (there an access crashes the PE that made it). The RMA entry
// points and their offset-parameter positions come from
// shmem.RawOffsetMethods.
//
// Arithmetic over named constants (base + wordBytes*i) passes clean: the
// name expresses the layout's intent. The shmem package itself (the
// typed layer's implementation) is exempt; other deliberate low-level
// code (the conveyor transport owns its slot layout) carries
// //actorvet:ignore-file directives.
func runRawOffset(pass *Pass) {
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
			if !rawArithmetic(offset) {
				return true
			}
			pass.Report(offset.Pos(), rawOffsetFix,
				"raw symmetric-heap offset arithmetic in %s bypasses the typed Int64Array bounds checks", callLabel(call, fn))
			return true
		})
	}
}

// rawArithmetic reports whether an offset expression is hand-rolled:
// arithmetic with a bare integer literal among its operands. A bare
// identifier, named-constant arithmetic (base + wordBytes*i), field, or
// call result (a.Offset()) passes clean.
func rawArithmetic(e ast.Expr) bool {
	arithmetic, literal := false, false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
				token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
				arithmetic = true
			}
		case *ast.BasicLit:
			literal = literal || n.Kind == token.INT
		}
		return true
	})
	return arithmetic && literal
}
