package analysis

import (
	"go/ast"
	"go/types"
)

// pkgShmem is the import path of the package whose RMA entry points
// rawoffset checks. With the whole-program loader every fixture and
// every repo package resolves it to the same real package, so matching
// is by exact object identity (package path + name), never by syntactic
// heuristics.
const pkgShmem = "actorprof/internal/shmem"

// calleeFunc resolves a call expression to its static callee: a declared
// function or method object. Calls of function values (fields, locals,
// interface methods without a concrete receiver) return nil — the
// rules treat those optimistically. Generic instantiations resolve to
// the origin (uninstantiated) object so contract lists match regardless
// of type arguments.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			// Method or field selection. Only method calls resolve.
			if f, ok := sel.Obj().(*types.Func); ok {
				return f.Origin()
			}
			return nil
		}
		// Package-qualified function: shmem.AllocInt64Array.
		obj = info.Uses[fn.Sel]
	case *ast.IndexExpr: // generic instantiation: NewSelector[int64](...)
		return calleeFunc(info, &ast.CallExpr{Fun: fn.X})
	case *ast.IndexListExpr:
		return calleeFunc(info, &ast.CallExpr{Fun: fn.X})
	}
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return nil
}
