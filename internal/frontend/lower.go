package frontend

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
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
		return renderList(s.Lhs) + " " + s.Tok.String() + " " + renderList(s.Rhs)
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

// renderList renders a comma-separated expression list.
func renderList(list []ast.Expr) string {
	out := make([]string, len(list))
	for i, e := range list {
		out[i] = types.ExprString(e)
	}
	return strings.Join(out, ", ")
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
// over index.Lo..index.Hi step 1; v is the Go-source value of the variable
// (identity for stride-1 loops).
type level struct {
	obj   types.Object // the index variable's definition
	v     expr.Var
	index loop.Index // named by the upper-cased variable name
}

// nest is the per-candidate lowering state.
type nest struct {
	lw     *lowerer
	levels []level
	span   [2]token.Pos // the outermost for statement's extent
	seq    int          // statement auto-naming counter (S1, S2, ...)
	sem    map[*deps.Stmt]codegen.Sem
	locals expr.Locals
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
		locals: make(expr.Locals),
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
		if lv.index.Name == upper {
			return lw.diag(ident.Pos(), CodeLoopHeader, nil, "index name %s collides with an enclosing loop (case-insensitive)", ident.Name)
		}
	}
	lv := level{obj: obj, v: expr.Var{K: len(nl.levels), Scale: 1}, index: loop.Index{Name: upper, Lo: lo, Hi: hi}}
	if stride > 1 {
		// Renumber to 0..count-1 and fold i = lo + stride*k into the
		// subscripts and value expressions.
		count := (hi-lo)/stride + 1
		lv.v.Scale, lv.v.Offset = stride, lo
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
		if strings.ToUpper(id.Name) == nl.levels[k].index.Name {
			return k
		}
	}
	return -1
}

// indexAt resolves e, parenthesized or not, to the level of the loop index
// it names, or -1 when it names none.
func (nl *nest) indexAt(e ast.Expr) int {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return nl.levelOf(id)
	}
	return -1
}

// lowerBody lowers a statement list into loop body nodes.
func (nl *nest) lowerBody(stmts []ast.Stmt) ([]loop.Node, *Diagnostic) {
	nodes := make([]loop.Node, len(stmts))
	for i, stmt := range stmts {
		var d *Diagnostic
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			nodes[i], d = nl.lowerAssign(s)
		case *ast.IncDecStmt:
			nodes[i], d = nl.lowerIncDec(s)
		case *ast.IfStmt:
			nodes[i], d = nl.lowerIf(s)
		case *ast.ForStmt, *ast.RangeStmt:
			d = nl.lw.diag(s.Pos(), CodeImperfectNest, s,
				"inner loops must perfectly nest (exactly one for per non-innermost body)")
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				d = nl.lw.diag(s.Pos(), CodeCall, call, "function calls cannot be lowered")
			} else {
				d = nl.lw.diag(s.Pos(), CodeStmt, s, "expression statements cannot be lowered")
			}
		default:
			d = nl.lw.diag(s.Pos(), CodeStmt, s, "statement kind %T is outside the lowerable subset", s)
		}
		if d != nil {
			return nil, d
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
func (nl *nest) lowerAssign(as *ast.AssignStmt) (loop.Node, *Diagnostic) {
	lw := nl.lw
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, lw.diag(as.Pos(), CodeStmt, as, "multi-value assignments cannot be lowered")
	}
	switch as.Tok {
	case token.ASSIGN, token.DEFINE, token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
	default:
		return nil, lw.diag(as.Pos(), CodeStmt, as, "assignment operator %s is outside the lowerable subset", as.Tok)
	}

	st := nl.newStmt()
	local, d := nl.target(as.Lhs[0], st, as, as.Tok == token.DEFINE, "assignment")
	if d != nil {
		return nil, d
	}
	rhs, d := nl.compileExpr(as.Rhs[0], st)
	if d != nil {
		return nil, d
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		rhs = nl.compound(st, local, as.Tok, rhs)
	}
	nl.sem[st] = nl.locals.Sem(local, rhs)
	return loop.S(st), nil
}

// compound desugars `lhs op= rhs` to `lhs = lhs op rhs`, and `lhs++` or
// `lhs--` to `lhs = lhs ± rhs`: the operator is the first byte of tok. An
// array target's extra read slot is allocated after the RHS reads,
// matching the evaluation order.
func (nl *nest) compound(st *deps.Stmt, local string, tok token.Token, rhs expr.Value) expr.Value {
	var lhs expr.Value
	if local == "" {
		st.Reads = append(st.Reads, st.Writes[0])
		lhs = expr.Read(len(st.Reads) - 1)
	} else {
		lhs = expr.Local(nl.locals.Slot(local))
	}
	return expr.Bin{Op: tok.String()[0], L: lhs, R: rhs}
}

// lowerIncDec lowers `a[i]++` / `t--` as the equivalent `+= 1` / `-= 1`.
func (nl *nest) lowerIncDec(s *ast.IncDecStmt) (loop.Node, *Diagnostic) {
	st := nl.newStmt()
	local, d := nl.target(s.X, st, s, false, "increment")
	if d != nil {
		return nil, d
	}
	nl.sem[st] = nl.locals.Sem(local, nl.compound(st, local, s.Tok, expr.Num(1)))
	return loop.S(st), nil
}

// target lowers the target of statement at (an assignment or increment, for
// diagnostics): an array element becomes st's write, and a scalar is
// returned as the name of the local the statement sets.
func (nl *nest) target(lhs ast.Expr, st *deps.Stmt, at ast.Node, defines bool, what string) (string, *Diagnostic) {
	switch v := lhs.(type) {
	case *ast.IndexExpr:
		ref, d := nl.refOf(v)
		st.Writes = []deps.Ref{ref}
		return "", d
	case *ast.Ident:
		if nl.levelOf(v) >= 0 {
			return "", nl.lw.diag(v.Pos(), CodeIndexAssign, at, "the body must not write loop index %s", v.Name)
		}
		return v.Name, nl.checkLocal(v, defines)
	}
	return "", nl.lw.diag(lhs.Pos(), CodeStmt, at, "%s target must be an array element or a scalar", what)
}

// declares reports whether obj is declared inside the nest.
func (nl *nest) declares(obj types.Object) bool {
	return obj != nil && obj.Pos() >= nl.span[0] && obj.Pos() < nl.span[1]
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
	if !nl.declares(obj) {
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
	cond, d := nl.lowerCond(s.Cond)
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
		elseBody, d = nl.lowerBody([]ast.Stmt{e})
	default:
		d = nl.lw.diag(s.Else.Pos(), CodeStmt, s.Else, "else form %T cannot be lowered", s.Else)
	}
	if d != nil {
		return nil, d
	}
	return loop.If(cond, thenBody, elseBody), nil
}

// lowerCond recognizes the index conditions the IR names canonically:
// parity tests `i%2 == 1` (ODD) / `i%2 == 0` (EVEN) and comparisons of an
// index against a constant (`i <= 5` names itself "I<=5", as lang does).
func (nl *nest) lowerCond(e ast.Expr) (loop.Cond, *Diagnostic) {
	lw := nl.lw
	cmp, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return loop.Cond{}, lw.diag(e.Pos(), CodeCondition, e, "condition must compare a loop index")
	}

	// Parity: (i % 2) == 0|1, or with !=.
	if mod, ok := ast.Unparen(cmp.X).(*ast.BinaryExpr); ok && mod.Op == token.REM {
		if cmp.Op != token.EQL && cmp.Op != token.NEQ {
			return loop.Cond{}, lw.diag(e.Pos(), CodeCondition, e, "parity tests support only == and !=")
		}
		k := nl.indexAt(mod.X)
		two, twoOK := nl.constVal(mod.Y)
		rhs, rhsOK := nl.constVal(cmp.Y)
		if k < 0 || !twoOK || two != 2 || !rhsOK || (rhs != 0 && rhs != 1) {
			return loop.Cond{}, lw.diag(e.Pos(), CodeCondition, e, "parity test must be `i%%2 == 0` or `i%%2 == 1` on a loop index")
		}
		lv := nl.levels[k]
		if lv.v.Offset+lv.v.Scale*lv.index.Lo < 0 {
			// Go's % is negative for negative operands; the canonical
			// ODD/EVEN names assume a non-negative range.
			return loop.Cond{}, lw.diag(e.Pos(), CodeCondition, e, "parity test over a range with negative values")
		}
		op := "EVEN"
		if (rhs == 1) == (cmp.Op == token.EQL) {
			op = "ODD"
		}
		return loop.Cond{Index: lv.index.Name, Var: lv.v, Op: op}, nil
	}

	// Comparison: i <op> const.
	k := nl.indexAt(cmp.X)
	if k < 0 {
		return loop.Cond{}, lw.diag(cmp.X.Pos(), CodeCondition, e, "condition must test a loop index against a constant")
	}
	rhs, ok := nl.constVal(cmp.Y)
	if !ok {
		return loop.Cond{}, lw.diag(cmp.Y.Pos(), CodeCondition, cmp.Y, "comparison bound is not an integer constant")
	}
	if !loop.IsComparison(cmp.Op.String()) {
		return loop.Cond{}, lw.diag(e.Pos(), CodeCondition, e, "comparison operator %s cannot be lowered", cmp.Op)
	}
	lv := nl.levels[k]
	return loop.Cond{Index: lv.index.Name, Var: lv.v, Op: cmp.Op.String(), C: rhs}, nil
}
