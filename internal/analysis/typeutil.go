package analysis

import (
	"go/ast"
	"go/types"
)

// Import paths of the runtime packages whose API contracts the analyzers
// enforce. With the whole-program loader every fixture and every repo
// package resolves these to the same real packages, so matching is by
// exact object identity (package path + name), never by syntactic
// heuristics.
const (
	pkgShmem    = "actorprof/internal/shmem"
	pkgActor    = "actorprof/internal/actor"
	pkgTrace    = "actorprof/internal/trace"
	pkgPAPI     = "actorprof/internal/papi"
	pkgConveyor = "actorprof/internal/conveyor"
)

// calleeFunc resolves a call expression to its static callee: a declared
// function or method object. Calls of function values (fields, locals,
// interface methods without a concrete receiver) return nil — the
// analyzers treat those optimistically. Generic instantiations resolve
// to the origin (uninstantiated) object so summaries and contract lists
// match regardless of type arguments.
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

// isFunc reports whether fn is the function or method pkgPath.name.
func isFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// funcIn reports whether fn is declared in pkgPath and its name is in
// names.
func funcIn(fn *types.Func, pkgPath string, names map[string]bool) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && names[fn.Name()]
}

// nameSet builds a membership set from a name list.
func nameSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// recvNamed returns the receiver's named type (through pointers and
// instantiations) of a method object, or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// isMethodOn reports whether fn is a method named name whose receiver is
// the named type pkgPath.typeName.
func isMethodOn(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	n := recvNamed(fn)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == typeName
}

// isPackageLevel reports whether obj is a package-scoped variable.
func isPackageLevel(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Parent() == obj.Pkg().Scope()
}
