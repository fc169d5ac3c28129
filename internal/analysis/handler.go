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
	// root is the scope that counts as "this PE's state": for a literal,
	// the enclosing shmem.Run closure when there is one, otherwise the
	// enclosing function declaration; for a named handler, its own
	// declaration. The fallback matters: a function like apps.BFS takes
	// the per-PE Runtime as a parameter and is invoked once per PE from
	// inside the SPMD closure, so its locals are per-PE state even though
	// no shmem.Run is lexically visible.
	root ast.Node
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
		// The SPMD roots: every closure passed to shmem.Run in this file.
		var roots []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 2 && isFunc(calleeFunc(info, call), pkgShmem, "Run") {
				if lit, ok := unparen(call.Args[1]).(*ast.FuncLit); ok {
					roots = append(roots, lit)
				}
			}
			return true
		})
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
					root := ast.Node(fd)
					for _, r := range roots {
						if h.Pos() >= r.Pos() && h.End() <= r.End() {
							root = r
							break
						}
					}
					out = append(out, handler{method: fn.Name(), typ: h.Type, body: h.Body, root: root})
				case *ast.Ident:
					if hf, ok := info.Uses[h].(*types.Func); ok {
						if node := cg.nodeOf(hf); node != nil {
							d := node.decl
							out = append(out, handler{method: fn.Name(), typ: d.Type, body: d.Body, root: d})
						}
					}
				}
				return true
			})
		}
	}
	return out
}
