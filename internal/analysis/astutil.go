package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// callee splits a call into its selector parts: for pe.Barrier() it
// returns (pe expression, "Barrier", true); for a bare f() it returns
// (nil, "f", true); for anything unnameable (calls of function values
// returned by calls, conversions, etc.) ok is false.
func callee(call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	switch fn := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fn.X, fn.Sel.Name, true
	case *ast.Ident:
		return nil, fn.Name, true
	case *ast.IndexExpr: // generic instantiation: NewSelector[int64](...)
		if sel, isSel := unparen(fn.X).(*ast.SelectorExpr); isSel {
			return sel.X, sel.Sel.Name, true
		}
		if id, isIdent := unparen(fn.X).(*ast.Ident); isIdent {
			return nil, id.Name, true
		}
	}
	return nil, "", false
}

// callLabel names a resolved call in messages: recv.Name when the
// receiver renders as an exprKey (pe.Barrier, rt.pc.Send), else Name.
func callLabel(call *ast.CallExpr, fn *types.Func) string {
	if recv, _, ok := callee(call); ok && recv != nil {
		if key := exprKey(recv); key != "" {
			return key + "." + fn.Name()
		}
	}
	return fn.Name()
}

// pathHasSuffix reports whether an import path is pkg or ends in /pkg —
// "actorprof/internal/shmem" matches suffix "internal/shmem", and a
// fixture that imports plain "shmem" matches suffix "shmem".
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// exprKey renders a receiver expression for messages — pe, rt.pc,
// s.convs. Unrenderable shapes (calls, index expressions with computed
// indices) return "".
func exprKey(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprKey(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// unparen strips parentheses from an expression (ast.Unparen arrived in
// Go 1.23; this repo's language floor is 1.22).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
