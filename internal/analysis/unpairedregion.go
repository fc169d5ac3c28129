package analysis

import (
	"fmt"
	"go/ast"
	"go/token"

	"actorprof/internal/actor"
	"actorprof/internal/trace"
)

// runUnpairedRegion flags profiling/allocation regions that are opened
// but never closed within a function:
//
//   - Runtime.Pause without a matching Resume on the same receiver — the
//     rest of the run's trace is silently discarded;
//   - papi EventSet Start without Stop (the receiver's static type is
//     *papi.EventSet, so Selector.Start is never confused with it) — the
//     counter region never reads out, and the set stays locked;
//   - trace SegmentEnter without SegmentExit — the segment never flushes
//     into segments.txt;
//   - a collective Malloc whose result is discarded — the symmetric
//     allocation is unreferencable on every PE forever.
//
// The pairing is function-scoped by design: a region that genuinely
// spans functions is rare enough to deserve an //actorvet:ignore with a
// justification.
func runUnpairedRegion(pass *Pass) {
	specs := pairSpecs()
	for _, file := range pass.Pkg.Files {
		// Nested function literals are inspected as part of the
		// enclosing declaration, so a pair split across a closure and
		// its enclosing function still matches.
		funcBodies(file, func(body *ast.BlockStmt) {
			checkPairs(pass, body, specs)
			checkDiscardedMalloc(pass, body)
		})
	}
}

// pairSpec describes one opener/closer method pair on one receiver type.
type pairSpec struct {
	pkg, typ    string // the receiver's defining package and type name
	open, close string
	message     string
	fix         string
}

func pairSpecs() []pairSpec {
	var specs []pairSpec
	for open, close := range actor.PairedMethods() {
		specs = append(specs, pairSpec{
			pkg: pkgActor, typ: "Runtime", open: open, close: close,
			message: "%s.%s without a matching %s in this function; trace collection stays suspended and the rest of the run's profile is silently dropped",
			fix:     "add a deferred or trailing %s, or ignore with a justification if the region intentionally spans functions",
		})
	}
	for open, close := range trace.PairedMethods() {
		specs = append(specs, pairSpec{
			pkg: pkgTrace, typ: "PECollector", open: open, close: close,
			message: "%s.%s without a matching %s in this function; the segment never flushes its cycle/PAPI deltas",
			fix:     "bracket the region with %s (or use Runtime.Segment, which pairs them for you)",
		})
	}
	specs = append(specs, pairSpec{
		pkg: pkgPAPI, typ: "EventSet", open: "Start", close: "Stop",
		message: "%s.%s without a matching %s in this function; the PAPI event set never reads out and stays locked",
		fix:     "call %s (its return value is the counter deltas) when the region of interest ends",
	})
	return specs
}

// callSite is one opener occurrence.
type callSite struct {
	pos  token.Pos
	recv string
}

// checkPairs matches openers to closers per receiver within body,
// including calls made inside nested function literals (they execute on
// the same PE goroutine, so they legitimately close regions the
// enclosing function opened).
func checkPairs(pass *Pass, body *ast.BlockStmt, specs []pairSpec) {
	info := pass.Pkg.Info
	for _, spec := range specs {
		var opens []callSite
		closed := make(map[string]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			var name string
			switch {
			case isMethodOn(fn, spec.pkg, spec.typ, spec.open):
				name = spec.open
			case isMethodOn(fn, spec.pkg, spec.typ, spec.close):
				name = spec.close
			default:
				return true
			}
			recv, _, ok := callee(call)
			if !ok || recv == nil {
				return true
			}
			key := exprKey(recv)
			if key == "" {
				return true
			}
			if name == spec.open {
				opens = append(opens, callSite{pos: call.Pos(), recv: key})
			} else {
				closed[key] = true
			}
			return true
		})
		for _, open := range opens {
			if !closed[open.recv] {
				pass.Report(open.pos,
					fmt.Sprintf(spec.fix, open.recv+"."+spec.close),
					spec.message, open.recv, spec.open, spec.close)
			}
		}
	}
}

// checkDiscardedMalloc flags statement-level Malloc calls and Mallocs
// assigned only to blanks.
func checkDiscardedMalloc(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	report := func(call *ast.CallExpr, recvKey string) {
		pass.Report(call.Pos(),
			"keep the returned offset (or use shmem.AllocInt64Array for a bounds-checked view); a symmetric allocation with no handle can never be addressed or reused",
			"result of collective %s.Malloc is discarded; the symmetric heap space leaks on every PE", recvKey)
	}
	discardedMalloc := func(e ast.Expr) (*ast.CallExpr, string, bool) {
		call, ok := unparen(e).(*ast.CallExpr)
		if !ok {
			return nil, "", false
		}
		fn := calleeFunc(info, call)
		if !isMethodOn(fn, pkgShmem, "PE", "Malloc") || len(call.Args) != 1 {
			return nil, "", false
		}
		recv, _, ok := callee(call)
		if !ok || recv == nil {
			return nil, "", false
		}
		key := exprKey(recv)
		return call, key, key != ""
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, key, ok := discardedMalloc(n.X); ok {
				report(call, key)
			}
		case *ast.AssignStmt:
			// Blank-only assignment: _ = pe.Malloc(n)
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			if id, ok := unparen(n.Lhs[0]).(*ast.Ident); !ok || id.Name != "_" {
				return true
			}
			if call, key, ok := discardedMalloc(n.Rhs[0]); ok {
				report(call, key)
			}
		}
		return true
	})
}
