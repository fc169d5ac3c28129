package analysis

import (
	"go/ast"
)

// runSendAfterDone flags Send calls on a selector mailbox that has
// already been marked Done in the same straight-line flow. Done(mb) is
// the PE's promise that no more messages will enter mailbox mb; the
// runtime panics on a late Send, but only at run time, on the input that
// happens to reach that path — this rule rejects the pattern at build
// time.
//
// The analysis is a dominance approximation over statement order: a Done
// recorded at some block level applies to every later statement at that
// level (and inside them); a Done nested in a conditional does not leak
// out of it.
func runSendAfterDone(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		funcBodies(file, true, func(ft *ast.FuncType, body *ast.BlockStmt) {
			walkDoneBlock(pass, body.List, make(map[doneKey]bool))
		})
	}
}

const sendAfterDoneFix = "move the Send before Done, or split the protocol across mailboxes so each mailbox is Done exactly when its sends are finished"

// doneKey identifies a (selector, mailbox) pair; mailbox "" means every
// mailbox (DoneAll).
type doneKey struct {
	recv, mailbox string
}

// walkDoneBlock processes statements in order. done is mutated as Done
// calls are seen; nested control flow gets a copy so its marks stay
// local.
func walkDoneBlock(pass *Pass, stmts []ast.Stmt, done map[doneKey]bool) {
	for _, s := range stmts {
		// First flag Sends in this statement's own expressions (call
		// statements, conditions, assignments) against the current done
		// set. Nested blocks are not inspected here: walkDoneBlock recurses
		// into them below with a copy of the state, so their Sends are
		// checked exactly once.
		for _, e := range levelExprs(s) {
			checkSends(pass, e, done)
		}
		// Then record definite Done calls: a statement-level call always
		// executes once flow reaches it.
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				recordDone(pass, call, done)
			}
		}
		// Recurse into nested blocks with a copy so conditional Dones
		// don't taint the remainder of this level. Sends inside were
		// already checked against this level's state above; the copy run
		// additionally catches Done->Send sequences local to the nested
		// block.
		for _, nested := range nestedBlocks(s) {
			walkDoneBlock(pass, nested.List, copyDone(done))
		}
	}
}

// levelExprs returns the expressions evaluated when control reaches stmt
// itself, before any nested block runs.
func levelExprs(s ast.Stmt) []ast.Expr {
	var out []ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		out = append(out, s.X)
	case *ast.AssignStmt:
		out = append(out, s.Rhs...)
	case *ast.ReturnStmt:
		out = append(out, s.Results...)
	case *ast.IfStmt:
		out = append(out, levelExprs(s.Init)...)
		out = append(out, s.Cond)
	case *ast.ForStmt:
		out = append(out, levelExprs(s.Init)...)
		if s.Cond != nil {
			out = append(out, s.Cond)
		}
	case *ast.RangeStmt:
		out = append(out, s.X)
	case *ast.SwitchStmt:
		out = append(out, levelExprs(s.Init)...)
		if s.Tag != nil {
			out = append(out, s.Tag)
		}
	case *ast.DeferStmt:
		out = append(out, s.Call)
	case *ast.GoStmt:
		out = append(out, s.Call)
	case *ast.SendStmt:
		out = append(out, s.Chan, s.Value)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					out = append(out, vs.Values...)
				}
			}
		}
	case *ast.LabeledStmt:
		out = append(out, levelExprs(s.Stmt)...)
	}
	return out
}

// checkSends reports Sends within expr that hit a done mailbox.
func checkSends(pass *Pass, expr ast.Expr, done map[doneKey]bool) {
	if len(done) == 0 || expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass.Pkg.Info, call); !isMethodOn(fn, pkgActor, "Selector", "Send") || len(call.Args) != 3 {
			return true
		}
		recv, _, ok := callee(call)
		if !ok || recv == nil {
			return true
		}
		recvKey := exprKey(recv)
		if recvKey == "" {
			return true
		}
		mb := litOrConstKey(call.Args[0])
		all := done[doneKey{recvKey, ""}]
		same := mb != "" && done[doneKey{recvKey, mb}]
		if all || same {
			label := mb
			if label == "" {
				label = "?"
			}
			pass.Report(call.Pos(), sendAfterDoneFix,
				"%s.Send on mailbox %s after %s.Done; Done promised no further sends on this mailbox (runtime panic)", recvKey, label, recvKey)
		}
		return true
	})
}

// recordDone marks Done/DoneAll statement-level calls.
func recordDone(pass *Pass, call *ast.CallExpr, done map[doneKey]bool) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || recvNamed(fn) == nil ||
		(!isMethodOn(fn, pkgActor, "Selector", "Done") && !isMethodOn(fn, pkgActor, "Selector", "DoneAll")) {
		return
	}
	recv, _, ok := callee(call)
	if !ok || recv == nil {
		return
	}
	recvKey := exprKey(recv)
	if recvKey == "" {
		return
	}
	switch fn.Name() {
	case "Done":
		if len(call.Args) != 1 {
			return
		}
		if mb := litOrConstKey(call.Args[0]); mb != "" {
			done[doneKey{recvKey, mb}] = true
		}
	case "DoneAll":
		if len(call.Args) == 0 {
			done[doneKey{recvKey, ""}] = true
		}
	}
}

// nestedBlocks returns the statement blocks directly nested in s.
func nestedBlocks(s ast.Stmt) []*ast.BlockStmt {
	var blocks []*ast.BlockStmt
	switch s := s.(type) {
	case *ast.BlockStmt:
		blocks = append(blocks, s)
	case *ast.IfStmt:
		blocks = append(blocks, s.Body)
		if s.Else != nil {
			blocks = append(blocks, nestedBlocks(s.Else)...)
		}
	case *ast.ForStmt:
		blocks = append(blocks, s.Body)
	case *ast.RangeStmt:
		blocks = append(blocks, s.Body)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			blocks = append(blocks, &ast.BlockStmt{List: c.(*ast.CaseClause).Body})
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			blocks = append(blocks, &ast.BlockStmt{List: c.(*ast.CaseClause).Body})
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			blocks = append(blocks, &ast.BlockStmt{List: c.(*ast.CommClause).Body})
		}
	case *ast.LabeledStmt:
		blocks = append(blocks, nestedBlocks(s.Stmt)...)
	}
	return blocks
}

func copyDone(done map[doneKey]bool) map[doneKey]bool {
	cp := make(map[doneKey]bool, len(done))
	for k, v := range done {
		cp[k] = v
	}
	return cp
}
