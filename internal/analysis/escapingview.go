package analysis

import (
	"go/ast"
	"go/types"

	"actorprof/internal/actor"
	"actorprof/internal/conveyor"
)

const escapeViewFix = "copy before retaining: v = append([]T(nil), v...)"
const staleViewFix = "copy the bytes you still need before the progress call"

// borrowSpec parameterizes the dataflow engine for borrowed conveyor
// views. It is also the spec the whole-program summaries are computed
// under (see Program facts).
func borrowSpec() *taintSpec {
	borrowed := conveyor.BorrowedViewMethods()
	convProgress := nameSet(conveyor.ProgressMethods())
	actProgress := nameSet(actor.ProgressMethods())
	return &taintSpec{
		describe:  "borrowed conveyor view",
		escapeFix: escapeViewFix,
		staleFix:  staleViewFix,
		sourceResults: func(fn *types.Func) []int {
			if n := recvNamed(fn); n != nil && n.Obj().Pkg() != nil &&
				n.Obj().Pkg().Path() == pkgConveyor && n.Obj().Name() == "Conveyor" {
				return borrowed[fn.Name()]
			}
			return nil
		},
		invalidates: func(fn *types.Func) string {
			n := recvNamed(fn)
			if n == nil || n.Obj().Pkg() == nil {
				return ""
			}
			switch {
			case n.Obj().Pkg().Path() == pkgConveyor && n.Obj().Name() == "Conveyor" && convProgress[fn.Name()]:
				return "conveyor progress (" + fn.Name() + ")"
			case n.Obj().Pkg().Path() == pkgActor && n.Obj().Name() == "Selector" && actProgress[fn.Name()]:
				return "actor progress (" + fn.Name() + ")"
			case n.Obj().Pkg().Path() == pkgActor && n.Obj().Name() == "Runtime" && fn.Name() == "Finish":
				return "Runtime.Finish (drains all conveyors)"
			}
			return ""
		},
	}
}

// runEscapingView flags borrowed conveyor views that outlive their
// borrow. conveyor.Pull returns a slice into the pull ring and PushSlot
// a slice into the push buffer; both are valid only until the next
// conveyor progress (DESIGN.md §8), when the transport recycles the
// backing arrays. A view stored to a field, global, channel, slice
// element, or goroutine — or simply read after progress — observes bytes
// from a different message: the zero-allocation hot path's one sharp
// edge, which corrupts MAIN/PROC/COMM attribution silently. The analysis
// is interprocedural: passing a view to a function whose summary stores
// its parameter is an escape too, and calling a function that
// transitively makes progress invalidates live views.
//
// A batch handler's slice parameters are borrowed runtime scratch too,
// whether the handler is a literal or a named function registered in
// this package: each is seeded when the walk reaches its FuncType.
func runEscapingView(pass *Pass) {
	_, summaries := pass.Prog.facts()
	spec := borrowSpec()
	spec.summaries = summaries
	spec.scratch = make(map[*ast.FuncType]string)
	for _, h := range handlers(pass) {
		spec.scratch[h.typ] = h.method
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := newTaintWalker(pass.Pkg.Info, spec, pass.Report)
			w.walkFunc(fd.Type, fd.Body)
		}
	}
}

// facts lazily builds the whole-program analysis facts shared by every
// pass: the call graph and the interprocedural borrow summaries.
func (prog *Program) facts() (*callGraph, *summaryTable) {
	prog.factsOnce.Do(func() {
		prog.callgraph = buildCallGraph(prog)
		prog.summaries = computeSummaries(prog, prog.callgraph, borrowSpec())
	})
	return prog.callgraph, prog.summaries
}
