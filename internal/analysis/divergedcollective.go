package analysis

import (
	"go/ast"
	"go/types"

	"actorprof/internal/actor"
	"actorprof/internal/shmem"
	"actorprof/internal/trace"
)

const divergedFix = "hoist the collective out of the rank-dependent control flow so every PE executes it, or guard it with //actorvet:ignore and a justification"

// The collective entry points, from the runtime packages' own vet
// contracts: *PE collectives and Runtime.Finish as methods, plus the
// symmetric allocators and collector constructors as package-level
// functions.
var (
	shmemCollectiveMethods = nameSet(shmem.CollectiveMethods())
	actorCollectiveMethods = nameSet(actor.CollectiveMethods())
	shmemCollectiveFuncs   = nameSet(shmem.CollectiveFuncs())
	actorCollectiveFuncs   = nameSet(actor.CollectiveFuncs())
	traceCollectiveFuncs   = nameSet(trace.CollectiveFuncs())
)

// isCollectiveCall reports whether fn — a resolved callee — is a
// collective entry point.
func isCollectiveCall(fn *types.Func) bool {
	if recvNamed(fn) != nil {
		return funcIn(fn, pkgShmem, shmemCollectiveMethods) || funcIn(fn, pkgActor, actorCollectiveMethods)
	}
	return funcIn(fn, pkgShmem, shmemCollectiveFuncs) || funcIn(fn, pkgActor, actorCollectiveFuncs) ||
		funcIn(fn, pkgTrace, traceCollectiveFuncs)
}

// runDivergedCollective flags collective operations that are reachable
// only under rank-dependent control flow: the classic SPMD deadlock,
// where the ranks that skip the collective leave the others waiting
// forever at a barrier that can never complete. The collective entry
// points come from the runtime packages' own vet contracts, so the rule
// tracks the API without a parallel list to maintain.
func runDivergedCollective(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			w := &divergenceWalker{pass: pass}
			w.tainted = rankTaint(pass.Pkg.Info, body)
			w.walkBlock(body, false)
		})
	}
}

// divergenceWalker walks one function body (treating function literals as
// executing inline at their lexical position) tracking whether control
// flow has diverged on rank.
type divergenceWalker struct {
	pass    *Pass
	tainted map[string]bool
}

func (w *divergenceWalker) walkBlock(b *ast.BlockStmt, div bool) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		w.walkStmt(s, div)
	}
}

func (w *divergenceWalker) walkStmt(s ast.Stmt, div bool) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			w.scan(s.Init, div)
		}
		w.scan(s.Cond, div)
		branchDiv := div || w.rankDep(s.Cond)
		w.walkBlock(s.Body, branchDiv)
		if s.Else != nil {
			w.walkStmt(s.Else, branchDiv)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.scan(s.Init, div)
		}
		tagDep := false
		if s.Tag != nil {
			w.scan(s.Tag, div)
			tagDep = w.rankDep(s.Tag)
		}
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CaseClause)
			clauseDiv := div || tagDep
			for _, e := range cc.List {
				w.scan(e, div)
				if w.rankDep(e) {
					clauseDiv = true
				}
			}
			for _, cs := range cc.Body {
				w.walkStmt(cs, clauseDiv)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.scan(s.Init, div)
		}
		bodyDiv := div
		if s.Cond != nil {
			w.scan(s.Cond, div)
			bodyDiv = bodyDiv || w.rankDep(s.Cond)
		}
		if s.Post != nil {
			w.scan(s.Post, div)
		}
		w.walkBlock(s.Body, bodyDiv)
	case *ast.RangeStmt:
		w.scan(s.X, div)
		w.walkBlock(s.Body, div || w.rankDep(s.X))
	case *ast.BlockStmt:
		w.walkBlock(s, div)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, div)
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Type switches never switch on rank (an int); selects hold no
		// conditions. Walk their bodies at the current divergence.
		ast.Inspect(s, func(n ast.Node) bool {
			if inner, ok := n.(ast.Stmt); ok && inner != s {
				if _, isCase := inner.(*ast.CaseClause); !isCase {
					if _, isComm := inner.(*ast.CommClause); !isComm {
						w.walkStmt(inner, div)
						return false
					}
				}
			}
			return true
		})
	default:
		w.scan(s, div)
	}
}

// scan inspects a non-control subtree: it reports collective calls made
// at the current divergence level and walks function-literal bodies
// inline (they execute, or are overwhelmingly likely to execute, at this
// point in the control flow — rt.Finish(func(){...}) being the canonical
// shape).
func (w *divergenceWalker) scan(n ast.Node, div bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			w.walkBlock(node.Body, div)
			return false
		case *ast.CallExpr:
			if div {
				w.checkCall(node)
			}
		}
		return true
	})
}

// checkCall reports node when it is a collective entry point.
func (w *divergenceWalker) checkCall(call *ast.CallExpr) {
	fn := calleeFunc(w.pass.Pkg.Info, call)
	if fn == nil || !isCollectiveCall(fn) {
		return
	}
	w.pass.Report(call.Pos(), divergedFix,
		"collective %s is only reachable under rank-dependent control flow; ranks that skip it strand the others in the barrier (SPMD deadlock)", callLabel(call, fn))
}

// rankDep reports whether expr depends on the executing PE's identity.
func (w *divergenceWalker) rankDep(expr ast.Expr) bool {
	return dependsOnRank(w.pass.Pkg.Info, expr, w.tainted)
}

// dependsOnRank reports whether e contains a PE.Rank()/PE.Node() call —
// the two accessors that differ across PEs — or an identifier in the
// taint set.
func dependsOnRank(info *types.Info, e ast.Expr, tainted map[string]bool) bool {
	dep := false
	selNames := selectorSels(e)
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if isMethodOn(fn, pkgShmem, "PE", "Rank") || isMethodOn(fn, pkgShmem, "PE", "Node") {
				dep = true
			}
		case *ast.Ident:
			if !selNames[n] && tainted[n.Name] {
				dep = true
			}
		}
		return !dep
	})
	return dep
}

// rankTaint computes the set of identifier names assigned (directly or
// transitively) from Rank()/Node() anywhere in body. The fixpoint loop is
// bounded: each pass can only add names, and chains longer than the bound
// are vanishingly rare in real code. The conventional-name seeds (rank,
// mype, …) are deliberate heuristics for rank values that cross function
// boundaries — they taint conditions, they do not match API calls.
func rankTaint(info *types.Info, body *ast.BlockStmt) map[string]bool {
	tainted := make(map[string]bool)
	// Seed with conventional parameter/variable names for rank values
	// that cross function boundaries, where dataflow can't see the source.
	for _, seed := range []string{"rank", "myrank", "mype", "myPE", "myRank"} {
		tainted[seed] = true
	}
	depOn := func(e ast.Expr) bool { return dependsOnRank(info, e, tainted) }
	for pass := 0; pass < 4; pass++ {
		grew := false
		mark := func(id *ast.Ident) {
			if id.Name != "_" && !tainted[id.Name] {
				tainted[id.Name] = true
				grew = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				anyDep := false
				for _, rhs := range n.Rhs {
					if depOn(rhs) {
						anyDep = true
						break
					}
				}
				if anyDep {
					for _, lhs := range n.Lhs {
						if id, ok := unparen(lhs).(*ast.Ident); ok {
							mark(id)
						}
					}
				}
			case *ast.ValueSpec:
				anyDep := false
				for _, v := range n.Values {
					if depOn(v) {
						anyDep = true
						break
					}
				}
				if anyDep {
					for _, id := range n.Names {
						mark(id)
					}
				}
			case *ast.RangeStmt:
				if depOn(n.X) {
					if id, ok := unparen(n.Key).(*ast.Ident); ok && n.Key != nil {
						mark(id)
					}
					if n.Value != nil {
						if id, ok := unparen(n.Value).(*ast.Ident); ok {
							mark(id)
						}
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
	return tainted
}

// selectorSels collects the Sel identifiers of every selector expression
// in n, so taint matching can skip field/method names that merely share a
// tainted variable's name.
func selectorSels(n ast.Node) map[*ast.Ident]bool {
	sels := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(node ast.Node) bool {
		if sel, ok := node.(*ast.SelectorExpr); ok {
			sels[sel.Sel] = true
		}
		return true
	})
	return sels
}
