package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the per-function dataflow engine behind the lifetime
// rule (escapingview). It tracks values — identified by their
// types.Object, with real whole-program type information — from the
// calls that produce them through assignments, slicing, control flow,
// closures, and calls, and detects the two failure modes of a borrowed
// buffer:
//
//   - escape: the value is stored somewhere that outlives the borrow
//     (struct field, global, channel, slice/map element, goroutine
//     capture, or a callee that does any of those per its summary);
//   - staleness: the value is read after an operation that recycles its
//     backing storage (conveyor or actor progress).
//
// Unresolvable calls (function values, interface methods) are treated
// optimistically — no escape, no progress — so findings stay pinpointed
// causes, never may-alias noise.

// taintSpec parameterizes the engine for one rule.
type taintSpec struct {
	// sourceResults returns the result indices of a resolved call that
	// produce tracked values, or nil. fn is never nil.
	sourceResults func(fn *types.Func) []int
	// invalidates returns a short phrase when a resolved call recycles
	// the storage behind every tracked value ("conveyor progress
	// (Advance)"), or "".
	invalidates func(fn *types.Func) string
	// scratch maps the FuncType of every batch handler (literal or
	// named) to the Selector method that installed it. Its slice
	// parameters are borrowed runtime scratch, seeded as sticky tracked
	// values: retaining them past the handler return is an escape, but
	// progress inside the handler does not stale them (the runtime's
	// re-entrancy guard keeps the scratch live for the whole
	// invocation). Nil in summary mode.
	scratch map[*ast.FuncType]string
	// describe names the tracked value class in messages, e.g.
	// "borrowed conveyor view".
	describe string
	// escapeFix and staleFix are the fix hints attached to findings.
	escapeFix string
	staleFix  string
	// summaries, when non-nil, supplies interprocedural facts: callee
	// escapes, callee-transitive invalidation, borrowed returns.
	summaries *summaryTable
}

// taint is the tracked state of one value.
type taint struct {
	origin string    // what produced it, for messages ("conveyor.Pull")
	pos    token.Pos // where it was produced
	root   types.Object
	// staleBy, when non-empty, names the call that invalidated the value
	// (further uses are violations).
	staleBy  string
	stalePos token.Pos
	// sticky exempts the value from invalidation: batch-handler scratch
	// stays valid across handler-internal progress.
	sticky bool
}

// summaryTable holds the interprocedural function summaries computed by
// a bounded fixpoint over the whole program.
type summaryTable struct {
	byFunc map[*types.Func]*funcSummary
}

// funcSummary is what the engine knows about calling a function without
// re-walking its body at every call site.
type funcSummary struct {
	// paramEscapes[i] reports that argument i is stored somewhere that
	// outlives the call.
	paramEscapes []bool
	// borrowedResults[i] reports that result i is (derived from) a
	// tracked source produced inside the callee.
	borrowedResults []bool
	// invalidates reports that calling the function (transitively) makes
	// progress that recycles tracked storage.
	invalidates bool
}

func (t *summaryTable) of(fn *types.Func) *funcSummary {
	if t == nil || fn == nil {
		return nil
	}
	return t.byFunc[fn.Origin()]
}

// taintWalker walks one function body in source order.
type taintWalker struct {
	info *types.Info
	spec *taintSpec

	// vars maps live tracked objects to their state. Value semantics:
	// branch clones copy the map so sibling branches stay independent.
	vars map[types.Object]taint

	// reportedAt de-duplicates findings across loop re-walks and branch
	// clones; shared by every clone of one walk.
	reportedAt map[token.Pos]bool

	// report receives findings; nil in summary mode.
	report func(pos token.Pos, fix, format string, args ...any)

	// collect receives summary facts; nil in reporting mode.
	collect *summaryCollector
}

// summaryCollector accumulates one function's summary during a
// summary-mode walk.
type summaryCollector struct {
	params      []types.Object // parameter objects by index
	escaped     map[types.Object]bool
	results     map[int]bool
	invalidates bool
}

func (w *taintWalker) clone() *taintWalker {
	cp := *w
	cp.vars = make(map[types.Object]taint, len(w.vars))
	for k, v := range w.vars {
		cp.vars[k] = v
	}
	return &cp
}

// merge unions another walker's post-branch state into w: a value
// invalidated on either path is invalidated, a value tracked on either
// path is tracked.
func (w *taintWalker) merge(o *taintWalker) {
	for obj, t := range o.vars {
		cur, ok := w.vars[obj]
		if !ok || (cur.staleBy == "" && t.staleBy != "") {
			w.vars[obj] = t
		}
	}
}

// walkFunc processes a function body, first seeding its parameters when
// the function is a batch handler.
func (w *taintWalker) walkFunc(ft *ast.FuncType, body *ast.BlockStmt) {
	w.seedScratch(ft)
	w.walkBody(body)
}

// walkBody processes a statement list in source order.
func (w *taintWalker) walkBody(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	for _, s := range body.List {
		w.walkStmt(s)
	}
}

func (w *taintWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.evalExpr(s.X)
	case *ast.AssignStmt:
		w.handleAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.handleValueSpec(vs)
				}
			}
		}
	case *ast.IncDecStmt:
		w.evalExpr(s.X)
	case *ast.ReturnStmt:
		for i, r := range s.Results {
			w.evalExpr(r)
			if w.collect != nil && w.exprTainted(r) {
				if t, ok := w.taintOf(r); ok && t.root == nil {
					w.collect.results[i] = true
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.evalExpr(s.Cond)
		body := w.clone()
		body.walkBody(s.Body)
		// A branch that cannot fall through (return/break/continue/panic)
		// contributes nothing to the post-if state: `if !ok { return }`
		// must not leak the early-exit path's invalidations into the code
		// that only runs when ok held.
		if !terminates(s.Body.List) {
			w.merge(body)
		}
		if s.Else != nil {
			els := w.clone()
			els.walkStmt(s.Else)
			if block, ok := s.Else.(*ast.BlockStmt); !ok || !terminates(block.List) {
				w.merge(els)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		// Two passes over the body expose back-edge staleness: a value
		// produced in iteration k and used at the top of iteration k+1
		// after progress at the bottom of iteration k.
		for pass := 0; pass < 2; pass++ {
			if s.Cond != nil {
				w.evalExpr(s.Cond)
			}
			b := w.clone()
			b.walkBody(s.Body)
			if s.Post != nil {
				b.walkStmt(s.Post)
			}
			w.merge(b)
		}
	case *ast.RangeStmt:
		w.evalExpr(s.X)
		for pass := 0; pass < 2; pass++ {
			b := w.clone()
			b.killLHS(s.Key)
			b.killLHS(s.Value)
			b.walkBody(s.Body)
			w.merge(b)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.evalExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			b := w.clone()
			for _, e := range cc.List {
				b.evalExpr(e)
			}
			for _, cs := range cc.Body {
				b.walkStmt(cs)
			}
			w.merge(b)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			b := w.clone()
			for _, cs := range cc.Body {
				b.walkStmt(cs)
			}
			w.merge(b)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			b := w.clone()
			if comm.Comm != nil {
				b.walkStmt(comm.Comm)
			}
			for _, cs := range comm.Body {
				b.walkStmt(cs)
			}
			w.merge(b)
		}
	case *ast.BlockStmt:
		w.walkBody(s)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.GoStmt:
		w.checkGoroutineCapture(s.Call)
	case *ast.DeferStmt:
		// A deferred call runs at function exit: its argument escapes the
		// statement's lifetime only in the capture sense; check sinks but
		// apply no progress effect (it happens after everything else).
		for _, a := range s.Call.Args {
			w.evalExpr(a)
		}
	case *ast.SendStmt:
		w.evalExpr(s.Chan)
		w.evalExpr(s.Value)
		if w.exprTainted(s.Value) {
			w.reportEscape(s.Value, "a channel send")
		}
	}
}

// terminates reports whether a statement list cannot fall through: it
// ends in return, break, continue, goto, or a panic call.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}

// handleValueSpec treats var declarations with initializers like
// assignments.
func (w *taintWalker) handleValueSpec(vs *ast.ValueSpec) {
	for _, v := range vs.Values {
		w.evalExpr(v)
	}
	switch {
	case len(vs.Values) == len(vs.Names):
		for i, name := range vs.Names {
			w.bindIdent(name, vs.Values[i], w.exprTainted(vs.Values[i]))
		}
	case len(vs.Values) == 1:
		if call, ok := unparen(vs.Values[0]).(*ast.CallExpr); ok {
			tainted := w.callResultTaints(call)
			for i, name := range vs.Names {
				w.bindIdent(name, vs.Values[0], tainted[i])
			}
		}
	}
}

// handleAssign evaluates RHS uses and sinks, then re-binds LHS targets.
func (w *taintWalker) handleAssign(a *ast.AssignStmt) {
	for _, r := range a.Rhs {
		w.evalExpr(r)
	}
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		// Compound assignment (+=, |=, …): the LHS is read too.
		for _, l := range a.Lhs {
			w.evalExpr(l)
		}
		return
	}
	// Work out which LHS positions receive tracked values.
	tainted := make(map[int]bool)
	if len(a.Lhs) == len(a.Rhs) {
		for i, r := range a.Rhs {
			tainted[i] = w.exprTainted(r)
		}
	} else if len(a.Rhs) == 1 {
		if call, ok := unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			tainted = w.callResultTaints(call)
		}
	}
	for i, l := range a.Lhs {
		switch lhs := unparen(l).(type) {
		case *ast.Ident:
			if obj := w.objOf(lhs); obj != nil && isPackageLevel(obj) && tainted[i] {
				w.reportEscapeAt(rhsFor(a, i), l.Pos(), "package-level variable "+lhs.Name)
				continue
			}
			w.bindIdent(lhs, rhsFor(a, i), tainted[i])
		case *ast.SelectorExpr:
			w.evalExpr(lhs.X)
			if tainted[i] {
				w.reportEscapeAt(rhsFor(a, i), l.Pos(), "field "+exprKey(lhs))
			}
		case *ast.IndexExpr:
			w.evalExpr(lhs.X)
			w.evalExpr(lhs.Index)
			if tainted[i] {
				w.reportEscapeAt(rhsFor(a, i), l.Pos(), "element of "+exprKey(lhs.X))
			}
		case *ast.StarExpr:
			w.evalExpr(lhs.X)
			if tainted[i] {
				w.reportEscapeAt(rhsFor(a, i), l.Pos(), "pointer target")
			}
		}
	}
}

// rhsFor returns the RHS expression feeding LHS index i (the single call
// for tuple assignments).
func rhsFor(a *ast.AssignStmt, i int) ast.Expr {
	if len(a.Lhs) == len(a.Rhs) {
		return a.Rhs[i]
	}
	return a.Rhs[0]
}

// bindIdent re-binds an identifier: tracked values start (or restart) a
// taint, anything else kills the previous one.
func (w *taintWalker) bindIdent(id *ast.Ident, from ast.Expr, tainted bool) {
	obj := w.objOf(id)
	if obj == nil || id.Name == "_" {
		return
	}
	if !tainted {
		delete(w.vars, obj)
		return
	}
	origin, root := w.originOf(from)
	w.vars[obj] = taint{origin: origin, pos: id.Pos(), root: root}
}

// killLHS clears the taint of a range key/value target.
func (w *taintWalker) killLHS(e ast.Expr) {
	if e == nil {
		return
	}
	if id, ok := unparen(e).(*ast.Ident); ok {
		if obj := w.objOf(id); obj != nil {
			delete(w.vars, obj)
		}
	}
}

// objOf resolves an identifier to its object (definition or use).
func (w *taintWalker) objOf(id *ast.Ident) types.Object {
	if obj := w.info.Defs[id]; obj != nil {
		return obj
	}
	return w.info.Uses[id]
}

// originOf derives the message label and summary root for a value
// produced by expr.
func (w *taintWalker) originOf(expr ast.Expr) (origin string, root types.Object) {
	if t, ok := w.taintOf(expr); ok {
		return t.origin, t.root
	}
	if call, ok := unparen(expr).(*ast.CallExpr); ok {
		if fn := calleeFunc(w.info, call); fn != nil {
			return fn.Name(), nil
		}
	}
	return w.spec.describe, nil
}

// taintOf returns the taint state behind an expression, walking through
// slices, parens, and conversions to the underlying tracked object.
func (w *taintWalker) taintOf(e ast.Expr) (taint, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := w.objOf(e); obj != nil {
			t, ok := w.vars[obj]
			return t, ok
		}
	case *ast.SliceExpr:
		return w.taintOf(e.X)
	}
	return taint{}, false
}

// exprTainted reports whether evaluating e yields a tracked value.
func (w *taintWalker) exprTainted(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := w.objOf(e)
		if obj == nil {
			return false
		}
		_, ok := w.vars[obj]
		return ok
	case *ast.SliceExpr:
		return w.exprTainted(e.X)
	case *ast.CallExpr:
		return w.callExprTainted(e)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if w.exprTainted(elt) {
				return true
			}
		}
		return false
	}
	return false
}

// callExprTainted reports whether a call's (single) value is tracked:
// conversions propagate (except to string, which copies), append
// propagates its base and non-spread element taints (spread copies the
// elements), and resolved calls consult sources and summaries.
func (w *taintWalker) callExprTainted(call *ast.CallExpr) bool {
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion. string(v) copies; everything else shares backing.
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.String {
			return false
		}
		if len(call.Args) == 1 {
			return w.exprTainted(call.Args[0])
		}
		return false
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := w.info.Uses[id].(*types.Builtin); isBuiltin {
			if call.Ellipsis.IsValid() {
				// append(dst, v...) copies v's bytes into dst: the result
				// is tracked only if dst itself is.
				return w.exprTainted(call.Args[0])
			}
			for _, a := range call.Args {
				if w.exprTainted(a) {
					return true
				}
			}
			return false
		}
	}
	return w.callResultTaints(call)[0]
}

// callResultTaints returns which results of a call are tracked values.
func (w *taintWalker) callResultTaints(call *ast.CallExpr) map[int]bool {
	out := make(map[int]bool)
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return out
	}
	for _, i := range w.spec.sourceResults(fn) {
		out[i] = true
	}
	if s := w.spec.summaries.of(fn); s != nil {
		for i, b := range s.borrowedResults {
			if b {
				out[i] = true
			}
		}
	}
	return out
}

// evalExpr walks an expression in evaluation order, reporting stale
// uses, escapes into callees, and release/invalidation effects.
func (w *taintWalker) evalExpr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		w.checkUse(e)
	case *ast.ParenExpr:
		w.evalExpr(e.X)
	case *ast.SelectorExpr:
		w.evalExpr(e.X)
	case *ast.IndexExpr:
		w.evalExpr(e.X)
		w.evalExpr(e.Index)
	case *ast.IndexListExpr:
		w.evalExpr(e.X)
	case *ast.SliceExpr:
		w.evalExpr(e.X)
		w.evalExpr(e.Low)
		w.evalExpr(e.High)
		w.evalExpr(e.Max)
	case *ast.StarExpr:
		w.evalExpr(e.X)
	case *ast.UnaryExpr:
		w.evalExpr(e.X)
	case *ast.BinaryExpr:
		w.evalExpr(e.X)
		w.evalExpr(e.Y)
	case *ast.TypeAssertExpr:
		w.evalExpr(e.X)
	case *ast.KeyValueExpr:
		w.evalExpr(e.Value)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			w.evalExpr(elt)
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if w.exprTainted(v) {
				w.reportEscape(v, "a composite literal")
			}
		}
	case *ast.FuncLit:
		// Function literals execute (or are overwhelmingly likely to
		// execute) at their lexical position in this codebase's idioms
		// (rt.Finish(func(){…})); walk them inline so captured tracked
		// values stay visible.
		w.walkFunc(e.Type, e.Body)
	case *ast.CallExpr:
		w.evalCall(e)
	}
}

// evalCall handles argument sinks and the callee's effects.
func (w *taintWalker) evalCall(call *ast.CallExpr) {
	// Conversions and builtins have no effects beyond their operands.
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			w.evalExpr(a)
		}
		return
	}
	fn := calleeFunc(w.info, call)
	w.evalExpr(call.Fun)
	for _, a := range call.Args {
		w.evalExpr(a)
	}
	if fn == nil {
		return
	}
	// Escapes into callees, per summary.
	if s := w.spec.summaries.of(fn); s != nil {
		for i, a := range call.Args {
			if i < len(s.paramEscapes) && s.paramEscapes[i] && w.exprTainted(a) {
				w.reportEscape(a, "call to "+fn.Name()+", which stores it")
			}
		}
	}
	// Invalidation: progress recycles every borrowed buffer.
	label := w.spec.invalidates(fn)
	if label == "" {
		if s := w.spec.summaries.of(fn); s != nil && s.invalidates {
			label = fn.Name() + " (makes conveyor progress)"
		}
	}
	if label != "" {
		if w.collect != nil {
			w.collect.invalidates = true
		}
		for obj, t := range w.vars {
			if t.staleBy == "" && !t.sticky {
				t.staleBy = label
				t.stalePos = call.Pos()
				w.vars[obj] = t
			}
		}
	}
}

// seedScratch marks the slice parameters of a batch handler as tracked
// borrowed scratch. The taints are sticky (progress inside the handler
// does not recycle the scratch) and rootless (they are runtime-owned,
// not caller-owned).
func (w *taintWalker) seedScratch(ft *ast.FuncType) {
	method, ok := w.spec.scratch[ft]
	if !ok || ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := w.info.Defs[name]
			if obj == nil || !isSliceish(obj.Type()) {
				continue
			}
			w.vars[obj] = taint{
				origin: method + " scratch parameter " + name.Name,
				pos:    name.Pos(),
				sticky: true,
			}
		}
	}
}

// checkUse reports a read of a stale tracked value.
func (w *taintWalker) checkUse(id *ast.Ident) {
	obj := w.objOf(id)
	if obj == nil {
		return
	}
	t, ok := w.vars[obj]
	if !ok || t.staleBy == "" {
		return
	}
	if w.reportedAt[id.Pos()] {
		return
	}
	w.reportedAt[id.Pos()] = true
	delete(w.vars, obj) // one finding per staleness, not one per use
	if w.report != nil {
		w.report(id.Pos(), w.spec.staleFix,
			"%s %q (from %s) is used after %s; the backing bytes may already be overwritten — copy them before that point",
			w.spec.describe, id.Name, t.origin, t.staleBy)
	}
}

// checkGoroutineCapture flags tracked values crossing into a goroutine:
// arguments of go f(v), and free variables of go func(){…}.
func (w *taintWalker) checkGoroutineCapture(call *ast.CallExpr) {
	for _, a := range call.Args {
		w.evalExpr(a)
		if w.exprTainted(a) {
			w.reportEscape(a, "a goroutine argument")
		}
	}
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := w.info.Uses[id]; obj != nil {
				if t, tracked := w.vars[obj]; tracked && !w.reportedAt[id.Pos()] {
					if w.collect != nil {
						if t.root != nil {
							w.collect.escaped[t.root] = true
						}
					} else if w.report != nil {
						w.reportedAt[id.Pos()] = true
						w.report(id.Pos(), w.spec.escapeFix,
							"%s %q (from %s) is captured by a goroutine; it outlives the borrow — copy it first",
							w.spec.describe, id.Name, t.origin)
						delete(w.vars, obj)
					}
				}
			}
			return true
		})
	}
}

// reportEscape reports that the tracked value in e escapes to dest.
func (w *taintWalker) reportEscape(e ast.Expr, dest string) {
	w.reportEscapeAt(e, e.Pos(), dest)
}

func (w *taintWalker) reportEscapeAt(e ast.Expr, pos token.Pos, dest string) {
	t, _ := w.taintOf(e)
	if w.collect != nil {
		if t.root != nil {
			w.collect.escaped[t.root] = true
		}
		return
	}
	if w.reportedAt[pos] {
		return
	}
	w.reportedAt[pos] = true
	origin := t.origin
	if origin == "" {
		origin = w.spec.describe
	}
	if w.report != nil {
		w.report(pos, w.spec.escapeFix,
			"%s (from %s) escapes to %s; the backing buffer is recycled by later progress — store a copy instead",
			w.spec.describe, origin, dest)
	}
}

// newTaintWalker creates a reporting-mode walker.
func newTaintWalker(info *types.Info, spec *taintSpec, report func(pos token.Pos, fix, format string, args ...any)) *taintWalker {
	return &taintWalker{
		info:       info,
		spec:       spec,
		vars:       make(map[types.Object]taint),
		reportedAt: make(map[token.Pos]bool),
		report:     report,
	}
}

// computeSummaries runs the bounded interprocedural fixpoint for spec
// over every function in the program. Four passes bound the transitive
// chains (deeper real-world chains are vanishingly rare, and missing one
// errs optimistic, never wrong-positive).
func computeSummaries(prog *Program, cg *callGraph, spec *taintSpec) *summaryTable {
	table := &summaryTable{byFunc: make(map[*types.Func]*funcSummary)}
	specWith := *spec
	specWith.summaries = table
	for pass := 0; pass < 4; pass++ {
		changed := false
		for fn, node := range cg.funcs {
			sum := summarizeFunc(prog, node, &specWith)
			prev := table.byFunc[fn]
			if prev == nil || !summariesEqual(prev, sum) {
				table.byFunc[fn] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return table
}

// summarizeFunc walks one function in summary mode: parameters are
// seeded as tracked-from-caller, sources create tracked-from-here, and
// the collector records which parameters escape, which results are
// borrowed, and whether the body makes progress.
func summarizeFunc(prog *Program, node *funcNode, spec *taintSpec) *funcSummary {
	sig := node.obj.Type().(*types.Signature)
	col := &summaryCollector{
		escaped: make(map[types.Object]bool),
		results: make(map[int]bool),
	}
	w := &taintWalker{
		info:       prog.Info,
		spec:       spec,
		vars:       make(map[types.Object]taint),
		reportedAt: make(map[token.Pos]bool),
		collect:    col,
	}
	// Seed slice parameters as caller-owned tracked values. Any slice
	// type qualifies: conveyor views are []byte/[]int32, and batch
	// scratch handed to helpers can be a slice of any message type.
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		col.params = append(col.params, p)
		if isSliceish(p.Type()) {
			w.vars[p] = taint{origin: "parameter " + p.Name(), pos: p.Pos(), root: p}
		}
	}
	w.walkBody(node.decl.Body)

	sum := &funcSummary{
		paramEscapes:    make([]bool, sig.Params().Len()),
		borrowedResults: make([]bool, sig.Results().Len()),
		invalidates:     col.invalidates,
	}
	for i, p := range col.params {
		sum.paramEscapes[i] = col.escaped[p]
	}
	for i := range sum.borrowedResults {
		sum.borrowedResults[i] = col.results[i]
	}
	return sum
}

func summariesEqual(a, b *funcSummary) bool {
	if a.invalidates != b.invalidates ||
		len(a.paramEscapes) != len(b.paramEscapes) ||
		len(a.borrowedResults) != len(b.borrowedResults) {
		return false
	}
	for i := range a.paramEscapes {
		if a.paramEscapes[i] != b.paramEscapes[i] {
			return false
		}
	}
	for i := range a.borrowedResults {
		if a.borrowedResults[i] != b.borrowedResults[i] {
			return false
		}
	}
	return true
}

// isSliceish reports whether t is a slice (or a named type whose
// underlying type is) - the value class the lifetime rules track.
func isSliceish(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
