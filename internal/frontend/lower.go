package frontend

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/loop"
)

// lowerer carries the per-file analysis state shared by all candidates.
type lowerer struct {
	fset     *token.FileSet
	info     *types.Info
	typeErrs []types.Error
}

func (lw *lowerer) pos(p token.Pos) Position {
	tp := lw.fset.Position(p)
	return Position{File: tp.Filename, Line: tp.Line, Col: tp.Column}
}

// diag builds a positioned diagnostic; node may be nil when no single
// offending expression exists.
func (lw *lowerer) diag(p token.Pos, code string, node ast.Node, format string, args ...any) *Diagnostic {
	d := &Diagnostic{Pos: lw.pos(p), Code: code, Message: fmt.Sprintf(format, args...)}
	if node != nil {
		d.Expr = render(node)
	}
	return d
}

// render formats an AST node back to source-like text for diagnostics.
func render(node ast.Node) string {
	if e, ok := node.(ast.Expr); ok {
		return types.ExprString(e)
	}
	switch s := node.(type) {
	case *ast.AssignStmt:
		lhs := make([]string, len(s.Lhs))
		for i, e := range s.Lhs {
			lhs[i] = types.ExprString(e)
		}
		rhs := make([]string, len(s.Rhs))
		for i, e := range s.Rhs {
			rhs[i] = types.ExprString(e)
		}
		return strings.Join(lhs, ", ") + " " + s.Tok.String() + " " + strings.Join(rhs, ", ")
	case *ast.IncDecStmt:
		return types.ExprString(s.X) + s.Tok.String()
	case *ast.ExprStmt:
		return types.ExprString(s.X)
	case *ast.ForStmt:
		return "for { ... }"
	case *ast.RangeStmt:
		return "for range { ... }"
	}
	return fmt.Sprintf("%T", node)
}

// lowerFunc lowers every top-level for statement of one function body.
func (lw *lowerer) lowerFunc(res *Result, fn *ast.FuncDecl) {
	count := 0
	for _, stmt := range fn.Body.List {
		switch s := stmt.(type) {
		case *ast.ForStmt:
			count++
			name := fn.Name.Name
			if count > 1 {
				name = fmt.Sprintf("%s#%d", fn.Name.Name, count)
			}
			if w, d := lw.lowerNest(name, s); d != nil {
				res.Rejected = append(res.Rejected, *d)
			} else {
				res.Loops = append(res.Loops, &Loop{Func: fn.Name.Name, Pos: lw.pos(s.Pos()), Workload: w})
			}
		case *ast.RangeStmt:
			count++
			res.Rejected = append(res.Rejected, *lw.diag(s.Pos(), CodeLoopHeader, s,
				"range loops are not lowerable; use a counted for with constant bounds"))
		}
	}
}

// level is one loop of the nest under lowering. The normalized index runs
// over Index.Lo..Index.Hi step 1; the Go-source value of the variable at
// normalized value v is offset + scale*v (identity for stride-1 loops).
type level struct {
	obj           types.Object // the index variable's definition
	name          string       // upper-cased canonical name
	scale, offset int64
	index         loop.Index
}

// nest is the per-candidate lowering state.
type nest struct {
	lw     *lowerer
	levels []level
	span   [2]token.Pos // the outermost for statement's extent
	seq    int          // statement auto-naming counter (S1, S2, ...)
	sem    map[*deps.Stmt]codegen.Sem
	// locals numbers the iteration-local scalars' slots in order of first
	// mention.
	locals map[string]int
	// arrays tracks each canonical array name's dimensionality and the
	// originating object, catching shape conflicts and case collisions.
	arrays map[string]arrayInfo
}

type arrayInfo struct {
	obj  types.Object
	dims int
}

// lowerNest turns one canonical for nest into a workload, or explains why
// it cannot.
func (lw *lowerer) lowerNest(name string, fs *ast.ForStmt) (*codegen.Workload, *Diagnostic) {
	nl := &nest{
		lw:     lw,
		span:   [2]token.Pos{fs.Pos(), fs.End()},
		sem:    make(map[*deps.Stmt]codegen.Sem),
		locals: make(map[string]int),
		arrays: make(map[string]arrayInfo),
	}
	// A type error inside the candidate makes the object and type maps
	// unreliable for exactly the identifiers we need; reject up front with
	// the checker's own position.
	for _, te := range lw.typeErrs {
		if te.Pos >= fs.Pos() && te.Pos < fs.End() {
			return nil, lw.diag(te.Pos, CodeType, nil, "%s", te.Msg)
		}
	}

	// Collect the perfectly nested headers: descend while the body is
	// exactly one inner for statement.
	cur := fs
	for {
		if d := nl.pushHeader(cur); d != nil {
			return nil, d
		}
		if len(cur.Body.List) == 1 {
			if inner, ok := cur.Body.List[0].(*ast.ForStmt); ok {
				cur = inner
				continue
			}
		}
		break
	}
	if len(cur.Body.List) == 0 {
		return nil, lw.diag(cur.Body.Lbrace, CodeEmptyBody, nil, "innermost loop body has no statements")
	}
	body, d := nl.lowerBody(cur.Body.List)
	if d != nil {
		return nil, d
	}
	indexes := make([]loop.Index, len(nl.levels))
	for i, lv := range nl.levels {
		indexes[i] = lv.index
	}
	n, err := loop.New(indexes, body)
	if err != nil {
		// Unreachable by construction (ranges and arities are pre-checked),
		// but surface it as a diagnostic rather than a panic.
		return nil, lw.diag(fs.Pos(), CodeLoopHeader, nil, "%v", err)
	}
	return &codegen.Workload{Name: name, Nest: n, Sem: nl.sem, Locals: len(nl.locals), Setup: lang.DefaultSetup(n)}, nil
}

// pushHeader validates one `for i := lo; i < hi; i += s` header and
// appends its level.
func (nl *nest) pushHeader(fs *ast.ForStmt) *Diagnostic {
	lw := nl.lw
	if fs.Init == nil || fs.Cond == nil || fs.Post == nil {
		return lw.diag(fs.For, CodeLoopHeader, nil, "loop needs init, condition and post clauses (for i := lo; i < hi; i++)")
	}

	// Init: `i := <const>`.
	init, ok := fs.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return lw.diag(fs.Init.Pos(), CodeLoopHeader, fs.Init, "loop must open with `i := <constant>`")
	}
	ident, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return lw.diag(init.Lhs[0].Pos(), CodeLoopHeader, init.Lhs[0], "loop variable must be a plain identifier")
	}
	lo, ok := nl.constVal(init.Rhs[0])
	if !ok {
		return lw.diag(init.Rhs[0].Pos(), CodeSymbolicBound, init.Rhs[0], "lower bound is not an integer constant")
	}
	obj := lw.info.Defs[ident]

	// Cond: `i < <const>` or `i <= <const>`.
	cond, ok := fs.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return lw.diag(fs.Cond.Pos(), CodeLoopHeader, fs.Cond, "loop condition must be `%s < hi` or `%s <= hi`", ident.Name, ident.Name)
	}
	if !nl.isLoopVar(cond.X, obj, ident.Name) {
		return lw.diag(cond.X.Pos(), CodeLoopHeader, fs.Cond, "loop condition must test the loop variable %s", ident.Name)
	}
	hi, ok := nl.constVal(cond.Y)
	if !ok {
		return lw.diag(cond.Y.Pos(), CodeSymbolicBound, cond.Y, "upper bound is not an integer constant")
	}
	if cond.Op == token.LSS {
		hi--
	}

	// Post: `i++` or `i += <positive const>`.
	stride := int64(1)
	switch post := fs.Post.(type) {
	case *ast.IncDecStmt:
		if post.Tok != token.INC || !nl.isLoopVar(post.X, obj, ident.Name) {
			return lw.diag(post.Pos(), CodeLoopHeader, post, "loop post must advance %s (`%s++` or `%s += s`)", ident.Name, ident.Name, ident.Name)
		}
	case *ast.AssignStmt:
		if post.Tok != token.ADD_ASSIGN || len(post.Lhs) != 1 || !nl.isLoopVar(post.Lhs[0], obj, ident.Name) {
			return lw.diag(post.Pos(), CodeLoopHeader, post, "loop post must advance %s (`%s++` or `%s += s`)", ident.Name, ident.Name, ident.Name)
		}
		s, ok := nl.constVal(post.Rhs[0])
		if !ok {
			return lw.diag(post.Rhs[0].Pos(), CodeSymbolicBound, post.Rhs[0], "stride is not an integer constant")
		}
		if s < 1 {
			return lw.diag(post.Pos(), CodeLoopHeader, post, "stride must be positive, got %d", s)
		}
		stride = s
	default:
		return lw.diag(fs.Post.Pos(), CodeLoopHeader, fs.Post, "loop post must be `%s++` or `%s += s`", ident.Name, ident.Name)
	}

	if hi < lo {
		return lw.diag(fs.For, CodeEmptyRange, fs.Cond, "loop over [%d,%d] executes zero iterations", lo, hi)
	}
	upper := strings.ToUpper(ident.Name)
	for _, lv := range nl.levels {
		if lv.name == upper {
			return lw.diag(ident.Pos(), CodeLoopHeader, nil, "index name %s collides with an enclosing loop (case-insensitive)", ident.Name)
		}
	}
	lv := level{obj: obj, name: upper, scale: 1, offset: 0, index: loop.Index{Name: upper, Lo: lo, Hi: hi}}
	if stride > 1 {
		// Renumber to 0..count-1 and fold i = lo + stride*k into the
		// subscripts and value expressions.
		count := (hi-lo)/stride + 1
		lv.scale, lv.offset = stride, lo
		lv.index = loop.Index{Name: upper, Lo: 0, Hi: count - 1}
	}
	nl.levels = append(nl.levels, lv)
	return nil
}

// isLoopVar reports whether e is the given loop variable. Object identity
// is authoritative; the name is a fallback when type information is
// incomplete.
func (nl *nest) isLoopVar(e ast.Expr, obj types.Object, name string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	if use := nl.lw.info.Uses[id]; use != nil && obj != nil {
		return use == obj
	}
	return id.Name == name
}

// levelOf resolves an identifier to its nest level, or -1.
func (nl *nest) levelOf(id *ast.Ident) int {
	use := nl.lw.info.Uses[id]
	for k := range nl.levels {
		if use != nil && nl.levels[k].obj != nil {
			if use == nl.levels[k].obj {
				return k
			}
			continue
		}
		if strings.ToUpper(id.Name) == nl.levels[k].name {
			return k
		}
	}
	return -1
}

// lowerBody lowers a statement list into loop body nodes.
func (nl *nest) lowerBody(stmts []ast.Stmt) ([]loop.Node, *Diagnostic) {
	var nodes []loop.Node
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			st, d := nl.lowerAssign(s)
			if d != nil {
				return nil, d
			}
			nodes = append(nodes, loop.S(st))
		case *ast.IncDecStmt:
			st, d := nl.lowerIncDec(s)
			if d != nil {
				return nil, d
			}
			nodes = append(nodes, loop.S(st))
		case *ast.IfStmt:
			node, d := nl.lowerIf(s)
			if d != nil {
				return nil, d
			}
			nodes = append(nodes, node)
		case *ast.ForStmt, *ast.RangeStmt:
			return nil, nl.lw.diag(s.Pos(), CodeImperfectNest, s,
				"inner loops must perfectly nest (exactly one for per non-innermost body)")
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				return nil, nl.lw.diag(s.Pos(), CodeCall, call, "function calls cannot be lowered")
			}
			return nil, nl.lw.diag(s.Pos(), CodeStmt, s, "expression statements cannot be lowered")
		default:
			return nil, nl.lw.diag(s.Pos(), CodeStmt, s, "statement kind %T is outside the lowerable subset", s)
		}
	}
	return nodes, nil
}

// newStmt allocates the next auto-named statement (S1, S2, ... in textual
// order, then-arms before else-arms — the same order lang.Parse numbers).
func (nl *nest) newStmt() *deps.Stmt {
	nl.seq++
	return &deps.Stmt{Name: fmt.Sprintf("S%d", nl.seq), Cost: 1}
}

// lowerAssign lowers `lhs = rhs` (plus the +=, -=, *= and := forms) into a
// statement with semantics.
func (nl *nest) lowerAssign(as *ast.AssignStmt) (*deps.Stmt, *Diagnostic) {
	lw := nl.lw
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, lw.diag(as.Pos(), CodeStmt, as, "multi-value assignments cannot be lowered")
	}
	var op token.Token
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
	case token.ADD_ASSIGN:
		op = token.ADD
	case token.SUB_ASSIGN:
		op = token.SUB
	case token.MUL_ASSIGN:
		op = token.MUL
	default:
		return nil, lw.diag(as.Pos(), CodeStmt, as, "assignment operator %s is outside the lowerable subset", as.Tok)
	}

	st := nl.newStmt()
	var local string
	switch lhs := as.Lhs[0].(type) {
	case *ast.IndexExpr:
		ref, d := nl.refOf(lhs, st)
		if d != nil {
			return nil, d
		}
		st.Writes = []deps.Ref{ref}
	case *ast.Ident:
		if k := nl.levelOf(lhs); k >= 0 {
			return nil, lw.diag(lhs.Pos(), CodeIndexAssign, as, "the body must not write loop index %s", lhs.Name)
		}
		if d := nl.checkLocal(lhs, as.Tok == token.DEFINE); d != nil {
			return nil, d
		}
		local = lhs.Name
	default:
		return nil, lw.diag(as.Lhs[0].Pos(), CodeStmt, as, "assignment target must be an array element or a scalar")
	}

	rhs, d := nl.compileExpr(as.Rhs[0], st)
	if d != nil {
		return nil, d
	}
	if op != token.ILLEGAL {
		// Desugar `lhs op= rhs` to `lhs = lhs op rhs`; the extra read slot
		// is allocated after the RHS reads, matching the evaluation order.
		var lhsNode evalNode
		if len(st.Writes) > 0 {
			lhsNode = readNode(len(st.Reads))
			st.Reads = append(st.Reads, st.Writes[0])
		} else {
			lhsNode = localNode(nl.local(local))
		}
		rhs = binNode{op: op, l: lhsNode, r: rhs}
	}
	nl.bindSem(st, local, rhs)
	return st, nil
}

// lowerIncDec lowers `a[i]++` / `t--` as the equivalent assignment.
func (nl *nest) lowerIncDec(s *ast.IncDecStmt) (*deps.Stmt, *Diagnostic) {
	op := token.ADD
	if s.Tok == token.DEC {
		op = token.SUB
	}
	st := nl.newStmt()
	var local string
	switch lhs := s.X.(type) {
	case *ast.IndexExpr:
		ref, d := nl.refOf(lhs, st)
		if d != nil {
			return nil, d
		}
		st.Writes = []deps.Ref{ref}
		st.Reads = append(st.Reads, ref)
		nl.bindSem(st, "", binNode{op: op, l: readNode(0), r: numNode(1)})
	case *ast.Ident:
		if k := nl.levelOf(lhs); k >= 0 {
			return nil, nl.lw.diag(lhs.Pos(), CodeIndexAssign, s, "the body must not write loop index %s", lhs.Name)
		}
		if d := nl.checkLocal(lhs, false); d != nil {
			return nil, d
		}
		local = lhs.Name
		nl.bindSem(st, local, binNode{op: op, l: localNode(nl.local(local)), r: numNode(1)})
	default:
		return nil, nl.lw.diag(s.Pos(), CodeStmt, s, "increment target must be an array element or a scalar")
	}
	return st, nil
}

// bindSem attaches the executable semantics: array statements store the
// written value, scalar statements update the iteration's local slot.
func (nl *nest) bindSem(st *deps.Stmt, local string, rhs evalNode) {
	if len(st.Writes) > 0 {
		nl.sem[st] = func(idx, in, locals, out []int64) {
			out[0] = rhs.eval(evalEnv{idx: idx, in: in, locals: locals})
		}
		return
	}
	slot := nl.local(local)
	nl.sem[st] = func(idx, in, locals, _ []int64) {
		locals[slot] = rhs.eval(evalEnv{idx: idx, in: in, locals: locals})
	}
}

// local returns the slot of the named iteration-local scalar.
func (nl *nest) local(name string) int {
	slot, ok := nl.locals[name]
	if !ok {
		slot = len(nl.locals)
		nl.locals[name] = slot
	}
	return slot
}

// checkLocal verifies that a scalar target is iteration-local: either
// freshly declared here (:=) or declared inside the nest. Writing a scalar
// that outlives the iteration would carry values across iterations, which
// the dependence analysis does not model.
func (nl *nest) checkLocal(id *ast.Ident, defines bool) *Diagnostic {
	if defines {
		return nil
	}
	obj := nl.lw.info.Uses[id]
	if obj == nil {
		obj = nl.lw.info.Defs[id]
	}
	if obj == nil || obj.Pos() < nl.span[0] || obj.Pos() >= nl.span[1] {
		return nl.lw.diag(id.Pos(), CodeEscape,
			id, "scalar %s is declared outside the loop nest; only iteration-local scalars can be lowered", id.Name)
	}
	return nil
}

// lowerIf lowers a two-armed conditional on a loop index.
func (nl *nest) lowerIf(s *ast.IfStmt) (loop.Node, *Diagnostic) {
	if s.Init != nil {
		return nil, nl.lw.diag(s.Init.Pos(), CodeCondition, s.Init, "if statements with init clauses cannot be lowered")
	}
	cond, name, d := nl.lowerCond(s.Cond)
	if d != nil {
		return nil, d
	}
	thenBody, d := nl.lowerBody(s.Body.List)
	if d != nil {
		return nil, d
	}
	var elseBody []loop.Node
	switch e := s.Else.(type) {
	case nil:
	case *ast.BlockStmt:
		elseBody, d = nl.lowerBody(e.List)
	case *ast.IfStmt:
		var node loop.Node
		node, d = nl.lowerIf(e)
		elseBody = []loop.Node{node}
	default:
		d = nl.lw.diag(s.Else.Pos(), CodeStmt, s.Else, "else form %T cannot be lowered", s.Else)
	}
	if d != nil {
		return nil, d
	}
	return loop.IfNode{Name: name, Cond: cond, Then: thenBody, Else: elseBody}, nil
}

// lowerCond recognizes the index conditions the IR names canonically:
// parity tests `i%2 == 1` (ODD) / `i%2 == 0` (EVEN) and comparisons of an
// index against a constant (`i <= 5` names itself "I<=5", as lang does).
func (nl *nest) lowerCond(e ast.Expr) (func(idx []int64) bool, string, *Diagnostic) {
	lw := nl.lw
	cmp, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return nil, "", lw.diag(e.Pos(), CodeCondition, e, "condition must compare a loop index")
	}

	// Parity: (i % 2) == 0|1, or with !=.
	if mod, ok := ast.Unparen(cmp.X).(*ast.BinaryExpr); ok && mod.Op == token.REM {
		if cmp.Op != token.EQL && cmp.Op != token.NEQ {
			return nil, "", lw.diag(e.Pos(), CodeCondition, e, "parity tests support only == and !=")
		}
		id, ok := ast.Unparen(mod.X).(*ast.Ident)
		k := -1
		if ok {
			k = nl.levelOf(id)
		}
		two, twoOK := nl.constVal(mod.Y)
		rhs, rhsOK := nl.constVal(cmp.Y)
		if k < 0 || !twoOK || two != 2 || !rhsOK || (rhs != 0 && rhs != 1) {
			return nil, "", lw.diag(e.Pos(), CodeCondition, e, "parity test must be `i%%2 == 0` or `i%%2 == 1` on a loop index")
		}
		lv := nl.levels[k]
		if lv.offset+lv.scale*lv.index.Lo < 0 {
			// Go's % is negative for negative operands; the canonical
			// ODD/EVEN names assume a non-negative range.
			return nil, "", lw.diag(e.Pos(), CodeCondition, e, "parity test over a range with negative values")
		}
		wantOdd := (rhs == 1) == (cmp.Op == token.EQL)
		name := "EVEN(" + lv.name + ")"
		if wantOdd {
			name = "ODD(" + lv.name + ")"
		}
		return func(idx []int64) bool {
			return (lv.offset+lv.scale*idx[k])%2 == 1 == wantOdd
		}, name, nil
	}

	// Comparison: i <op> const.
	id, ok := ast.Unparen(cmp.X).(*ast.Ident)
	k := -1
	if ok {
		k = nl.levelOf(id)
	}
	if k < 0 {
		return nil, "", lw.diag(cmp.X.Pos(), CodeCondition, e, "condition must test a loop index against a constant")
	}
	rhs, ok := nl.constVal(cmp.Y)
	if !ok {
		return nil, "", lw.diag(cmp.Y.Pos(), CodeCondition, cmp.Y, "comparison bound is not an integer constant")
	}
	opText := map[token.Token]string{
		token.LSS: "<", token.LEQ: "<=", token.GTR: ">",
		token.GEQ: ">=", token.EQL: "==", token.NEQ: "!=",
	}[cmp.Op]
	if opText == "" {
		return nil, "", lw.diag(e.Pos(), CodeCondition, e, "comparison operator %s cannot be lowered", cmp.Op)
	}
	lv := nl.levels[k]
	op := cmp.Op
	name := fmt.Sprintf("%s%s%d", lv.name, opText, rhs)
	return func(idx []int64) bool {
		v := lv.offset + lv.scale*idx[k]
		switch op {
		case token.LSS:
			return v < rhs
		case token.LEQ:
			return v <= rhs
		case token.GTR:
			return v > rhs
		case token.GEQ:
			return v >= rhs
		case token.EQL:
			return v == rhs
		default:
			return v != rhs
		}
	}, name, nil
}
