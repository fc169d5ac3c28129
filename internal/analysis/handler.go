package analysis

import (
	"go/ast"
	"go/types"

	"actorprof/internal/actor"
)

// handler is one registered message handler, resolved to its syntax.
type handler struct {
	// method is the *actor.Selector method that installed it: Process,
	// or a batch method from actor.BatchHandlerMethods.
	method string
	typ    *ast.FuncType
	body   *ast.BlockStmt
}

// handlerArgs maps each *actor.Selector method that installs a handler
// to the index of its handler argument. Process is ProcessBatch with
// the loop written for you, so both kinds run inside conveyor progress.
var handlerArgs = func() map[string]int {
	args := map[string]int{"Process": 1}
	for name, idx := range actor.BatchHandlerMethods() {
		args[name] = idx
	}
	return args
}()

// handlers resolves every handler registered in the pass's package: a
// function literal, or a named function resolved through the call graph
// (which spans the whole program, cross-file and cross-package alike).
// Handlers passed as function values or method values stay unresolved.
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
				idx, ok := handlerArgs[fn.Name()]
				if !ok || idx >= len(call.Args) || !isMethodOn(fn, pkgActor, "Selector", fn.Name()) {
					return true
				}
				switch h := unparen(call.Args[idx]).(type) {
				case *ast.FuncLit:
					out = append(out, handler{method: fn.Name(), typ: h.Type, body: h.Body})
				case *ast.Ident:
					if hf, ok := info.Uses[h].(*types.Func); ok {
						if node := cg.nodeOf(hf); node != nil {
							out = append(out, handler{method: fn.Name(), typ: node.decl.Type, body: node.decl.Body})
						}
					}
				}
				return true
			})
		}
	}
	return out
}
