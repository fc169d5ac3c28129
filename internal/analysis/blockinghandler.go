package analysis

import (
	"go/ast"
	"go/types"

	"actorprof/internal/actor"
	"actorprof/internal/shmem"
)

// The runtime packages' vet contracts for what a handler must not call.
var (
	blockingShmem   = nameSet(shmem.BlockingMethods())
	unsafeInHandler = nameSet(actor.HandlerUnsafeMethods())
)

const blockingFix = "move the blocking call out of the handler into the MAIN segment (before Done) or restructure with an extra mailbox; handlers may only compute and Send"

// isBlockedInHandler reports whether fn — a resolved callee — must not
// run inside a handler, per the runtime packages' vet contracts.
func isBlockedInHandler(fn *types.Func) bool {
	switch {
	case funcIn(fn, pkgShmem, blockingShmem):
		return true // barriers, collectives, wait-untils (PE and Int64Array)
	case funcIn(fn, pkgShmem, shmemCollectiveFuncs):
		return true // AllocInt64Array blocks in Malloc's barrier
	case funcIn(fn, pkgActor, unsafeInHandler):
		return true // Runtime.Finish re-enters the progress loop
	case funcIn(fn, pkgConveyor, unsafeInHandler):
		return true // Conveyor.Advance is the progress loop
	}
	return false
}

// runBlockingHandler flags message handlers — per-message and batch
// alike — that call blocking operations. Handlers execute one at a time
// inside conveyor progress (the paper's PROC region, carved out of
// COMM): a handler that blocks on a barrier, a nested Finish, a
// wait-until, or conveyor advance/drain stalls the very progress loop
// that would deliver the messages it is waiting for — deadlocking the
// PE — and meanwhile the stalled cycles are attributed to T_PROC,
// poisoning the profile the paper's Figures 12-13 depend on. Calls
// anywhere inside the handler body count, including closures it defines
// (they run on the same goroutine).
func runBlockingHandler(pass *Pass) {
	info := pass.Pkg.Info
	for _, h := range handlers(pass) {
		ast.Inspect(h.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || !isBlockedInHandler(fn) {
				return true
			}
			pass.Report(call.Pos(), blockingFix,
				"message handler calls blocking %s; handlers run inside conveyor progress, so blocking here deadlocks the PE and corrupts T_PROC attribution", callLabel(call, fn))
			return true
		})
	}
}
