package analysis

import (
	"go/ast"
	"go/types"

	"actorprof/internal/actor"
)

// handler is one registered batch handler, resolved to its signature.
type handler struct {
	// method is the *actor.Selector method that installed it, one of
	// actor.BatchHandlerMethods.
	method string
	typ    *ast.FuncType
}

// batchArgs maps each batch-handler method to its handler argument.
var batchArgs = actor.BatchHandlerMethods()

// handlers resolves every batch handler registered in the pass's
// package: a function literal, or a named function resolved through the
// call graph (which spans the whole program, cross-file and
// cross-package alike). Handlers passed as function values or method
// values stay unresolved.
func handlers(pass *Pass) []handler {
	cg, _ := pass.Prog.facts()
	info := pass.Pkg.Info
	var out []handler
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil {
					return true
				}
				idx, ok := batchArgs[fn.Name()]
				if !ok || idx >= len(call.Args) || !isMethodOn(fn, pkgActor, "Selector", fn.Name()) {
					return true
				}
				switch h := unparen(call.Args[idx]).(type) {
				case *ast.FuncLit:
					out = append(out, handler{method: fn.Name(), typ: h.Type})
				case *ast.Ident:
					if hf, ok := info.Uses[h].(*types.Func); ok {
						if node := cg.nodeOf(hf); node != nil {
							out = append(out, handler{method: fn.Name(), typ: node.decl.Type})
						}
					}
				}
				return true
			})
		}
	}
	return out
}
