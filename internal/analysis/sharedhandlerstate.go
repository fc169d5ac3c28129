package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

const sharedStateFix = "move the variable into the SPMD closure (per-PE), or Send the update to the PE that owns it and mutate it in that PE's handler"

// runSharedHandlerState flags message handlers — per-message and batch
// alike — that mutate state shared across PEs instead of routing the
// update through Send. Inside shmem.Run every PE executes its own
// invocation of the SPMD body closure, so variables declared inside that
// closure are per-PE — but a handler that writes a package-level
// variable, or a variable captured from outside the SPMD closure, is
// mutating memory that every PE's handlers race on. On the in-process
// simulator this merely corrupts counters; under the actor model's
// ownership discipline (state belongs to exactly one PE's actor, mutated
// only by its own handlers) it is a correctness bug that a
// multi-process transport would turn into a real data race. Element
// writes (hist[pe.Rank()] = …) are the sanctioned aggregation idiom and
// are not flagged.
func runSharedHandlerState(pass *Pass) {
	for _, h := range handlers(pass) {
		// Whole-variable writes anywhere in the handler body, including
		// closures it defines (same goroutine).
		ast.Inspect(h.body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok == token.DEFINE {
					return true
				}
				for _, l := range s.Lhs {
					checkSharedWrite(pass, l, h.root)
				}
			case *ast.IncDecStmt:
				checkSharedWrite(pass, s.X, h.root)
			}
			return true
		})
	}
}

// checkSharedWrite reports target when it is a whole variable owned
// outside the PE's SPMD scope. Selector and index targets are skipped:
// field state belongs to the receiver's owner and element writes are the
// per-rank aggregation idiom.
func checkSharedWrite(pass *Pass, target ast.Expr, root ast.Node) {
	id, ok := unparen(target).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj, ok := pass.Pkg.Info.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return
	}
	switch {
	case isPackageLevel(obj):
		pass.Report(id.Pos(), sharedStateFix,
			"message handler writes package-level variable %s; every PE's handlers share it, so concurrent supersteps race — actor state must be owned by one PE and updated via Send", id.Name)
	case obj.Pos() < root.Pos() || obj.Pos() > root.End():
		pass.Report(id.Pos(), sharedStateFix,
			"message handler writes %s, which is captured from outside this PE's SPMD closure and therefore shared by every PE's handlers — own it in one PE's actor and update it via Send", id.Name)
	}
}
