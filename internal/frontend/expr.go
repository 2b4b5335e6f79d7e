package frontend

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
)

// ---- Executable expression nodes (mirrors package lang's interpreter) ----

// evalEnv is what an expression reads: the iteration's index vector, the
// statement's array read values and the iteration's local slots. It is
// passed by value (the buffers are the caller's), so evaluation allocates
// nothing.
type evalEnv struct {
	idx, in, locals []int64
}

type evalNode interface{ eval(e evalEnv) int64 }

type numNode int64

func (n numNode) eval(evalEnv) int64 { return int64(n) }

// idxNode yields the Go-source value of a loop variable: the normalized
// index scaled back through the level's stride folding.
type idxNode struct {
	k             int
	scale, offset int64
}

func (n idxNode) eval(e evalEnv) int64 { return n.offset + n.scale*e.idx[n.k] }

// localNode reads an iteration-local scalar's slot.
type localNode int

func (l localNode) eval(e evalEnv) int64 { return e.locals[l] }

// readNode yields the statement's slot-th array read (bound by codegen).
type readNode int

func (r readNode) eval(e evalEnv) int64 { return e.in[int(r)] }

type binNode struct {
	op   token.Token
	l, r evalNode
}

func (b binNode) eval(e evalEnv) int64 {
	lv, rv := b.l.eval(e), b.r.eval(e)
	switch b.op {
	case token.ADD:
		return lv + rv
	case token.SUB:
		return lv - rv
	default:
		return lv * rv
	}
}

// ---- Expression compilation ----

// compileExpr compiles a value expression: literals, loop indices,
// iteration-local scalars, affine array reads, and +, -, * over them.
// Array reads claim read slots on st in evaluation order.
func (nl *nest) compileExpr(e ast.Expr, st *deps.Stmt) (evalNode, *Diagnostic) {
	lw := nl.lw
	switch v := e.(type) {
	case *ast.ParenExpr:
		return nl.compileExpr(v.X, st)
	case *ast.BasicLit:
		if c, ok := nl.constVal(v); ok {
			return numNode(c), nil
		}
		return nil, lw.diag(v.Pos(), CodeExpr, v, "only integer literals can be lowered")
	case *ast.UnaryExpr:
		if v.Op != token.SUB {
			return nil, lw.diag(v.Pos(), CodeExpr, v, "unary operator %s is outside the lowerable subset", v.Op)
		}
		inner, d := nl.compileExpr(v.X, st)
		if d != nil {
			return nil, d
		}
		return binNode{op: token.SUB, l: numNode(0), r: inner}, nil
	case *ast.Ident:
		if k := nl.levelOf(v); k >= 0 {
			lv := nl.levels[k]
			return idxNode{k: k, scale: lv.scale, offset: lv.offset}, nil
		}
		// An iteration-local scalar; anything declared outside the nest is
		// an escaping value the iteration semantics cannot model.
		obj := nl.lw.info.Uses[v]
		if obj == nil || obj.Pos() < nl.span[0] || obj.Pos() >= nl.span[1] {
			return nil, lw.diag(v.Pos(), CodeEscape, v,
				"scalar %s is declared outside the loop nest", v.Name)
		}
		return localNode(nl.local(v.Name)), nil
	case *ast.IndexExpr:
		ref, d := nl.refOf(v, st)
		if d != nil {
			return nil, d
		}
		slot := len(st.Reads)
		st.Reads = append(st.Reads, ref)
		return readNode(slot), nil
	case *ast.BinaryExpr:
		if v.Op != token.ADD && v.Op != token.SUB && v.Op != token.MUL {
			return nil, lw.diag(v.OpPos, CodeExpr, v, "operator %s is outside the lowerable subset (+, -, * only)", v.Op)
		}
		l, d := nl.compileExpr(v.X, st)
		if d != nil {
			return nil, d
		}
		r, d := nl.compileExpr(v.Y, st)
		if d != nil {
			return nil, d
		}
		return binNode{op: v.Op, l: l, r: r}, nil
	case *ast.CallExpr:
		return nil, lw.diag(v.Pos(), CodeCall, v, "function calls (and conversions) cannot be lowered")
	default:
		return nil, lw.diag(e.Pos(), CodeExpr, e, "expression kind %T is outside the lowerable subset", e)
	}
}

// ---- Array references ----

// refOf lowers `a[x]` or `a[x][y]` into a canonical reference: upper-cased
// array name, affine subscripts with stride folding applied. st is used
// only for diagnostics context; slots are claimed by the caller.
func (nl *nest) refOf(e *ast.IndexExpr, st *deps.Stmt) (deps.Ref, *Diagnostic) {
	lw := nl.lw
	// Unwind the subscript chain: a[x][y] parses as (a[x])[y].
	var subs []ast.Expr
	base := ast.Expr(e)
	for {
		ix, ok := base.(*ast.IndexExpr)
		if !ok {
			break
		}
		subs = append([]ast.Expr{ix.Index}, subs...)
		base = ix.X
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return deps.Ref{}, lw.diag(base.Pos(), CodeExpr, e, "indexed value must be a named array")
	}
	if len(subs) > 2 {
		return deps.Ref{}, lw.diag(e.Pos(), CodeDims, e, "array %s has %d subscripts; at most 2 supported", id.Name, len(subs))
	}
	if d := nl.checkArray(id, len(subs), e); d != nil {
		return deps.Ref{}, d
	}
	ref := deps.Ref{Array: strings.ToUpper(id.Name)}
	for _, sub := range subs {
		a, d := nl.affineOf(sub)
		if d != nil {
			return deps.Ref{}, d
		}
		ref.Index = append(ref.Index, a)
	}
	return ref, nil
}

// checkArray validates the indexed identifier: it must name a slice or
// array with integer elements at exactly the indexing depth used, used
// consistently across the nest, with no case-insensitive name collisions
// (canonical names are upper-cased).
func (nl *nest) checkArray(id *ast.Ident, dims int, at ast.Expr) *Diagnostic {
	lw := nl.lw
	obj := lw.info.Uses[id]
	if obj == nil {
		return lw.diag(id.Pos(), CodeType, at, "cannot resolve array %s", id.Name)
	}
	t := obj.Type()
	for d := 0; d < dims; d++ {
		switch u := t.Underlying().(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return lw.diag(id.Pos(), CodeDims, at, "%s is indexed %d deep but has type %s", id.Name, dims, obj.Type())
		}
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || (b.Kind() != types.Int && b.Kind() != types.Int64) {
		return lw.diag(id.Pos(), CodeNonInteger, at, "array %s has element type %s; only int and int64 are lowerable", id.Name, t)
	}
	if _, deeper := t.Underlying().(*types.Slice); deeper {
		return lw.diag(id.Pos(), CodeDims, at, "%s is deeper than its %d subscripts", id.Name, dims)
	}
	name := strings.ToUpper(id.Name)
	if prev, ok := nl.arrays[name]; ok {
		if prev.obj != obj {
			return lw.diag(id.Pos(), CodeArrayShape, at, "arrays %q and another identifier collide case-insensitively as %s", id.Name, name)
		}
		if prev.dims != dims {
			return lw.diag(id.Pos(), CodeArrayShape, at, "array %s is used with both %d and %d subscripts", id.Name, prev.dims, dims)
		}
	} else {
		nl.arrays[name] = arrayInfo{obj: obj, dims: dims}
	}
	return nil
}

// ---- Affine subscripts ----

// affineOf compiles a subscript into an affine expression over the
// normalized loop indices, folding each level's (scale, offset) so that
// strided source loops produce step-1 IR.
func (nl *nest) affineOf(e ast.Expr) (expr.Affine, *Diagnostic) {
	a, ok := nl.affine(e)
	if !ok {
		return expr.Affine{}, nl.lw.diag(e.Pos(), CodeNonAffine, e,
			"subscript is not affine in the loop indices")
	}
	return a, nil
}

func (nl *nest) affine(e ast.Expr) (expr.Affine, bool) {
	depth := len(nl.levels)
	if c, ok := nl.constVal(e); ok {
		return expr.Const(depth, c), true
	}
	switch v := e.(type) {
	case *ast.ParenExpr:
		return nl.affine(v.X)
	case *ast.Ident:
		if k := nl.levelOf(v); k >= 0 {
			lv := nl.levels[k]
			return expr.Scaled(depth, k, lv.scale, lv.offset), true
		}
		return expr.Affine{}, false
	case *ast.UnaryExpr:
		if v.Op != token.SUB {
			return expr.Affine{}, false
		}
		inner, ok := nl.affine(v.X)
		if !ok {
			return expr.Affine{}, false
		}
		return expr.Const(depth, 0).Sub(inner), true
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD, token.SUB:
			l, ok := nl.affine(v.X)
			if !ok {
				return expr.Affine{}, false
			}
			r, ok := nl.affine(v.Y)
			if !ok {
				return expr.Affine{}, false
			}
			if v.Op == token.ADD {
				return l.Add(r), true
			}
			return l.Sub(r), true
		case token.MUL:
			// One side must be constant; c*affine stays affine.
			if c, ok := nl.constVal(v.X); ok {
				if r, ok := nl.affine(v.Y); ok {
					return mulAffine(r, c), true
				}
				return expr.Affine{}, false
			}
			if c, ok := nl.constVal(v.Y); ok {
				if l, ok := nl.affine(v.X); ok {
					return mulAffine(l, c), true
				}
			}
			return expr.Affine{}, false
		}
	}
	return expr.Affine{}, false
}

func mulAffine(a expr.Affine, c int64) expr.Affine {
	out := expr.Const(a.Arity(), a.Const*c)
	for k, coef := range a.Coef {
		out.Coef[k] = coef * c
	}
	return out
}

// ---- Integer constants ----

// constVal evaluates an expression to an integer constant. The type
// checker's constant folding is authoritative when available; a structural
// fallback handles literals when type information is incomplete.
func (nl *nest) constVal(e ast.Expr) (int64, bool) {
	if tv, ok := nl.lw.info.Types[e]; ok && tv.Value != nil {
		if tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
				return v, true
			}
		}
		return 0, false
	}
	switch v := e.(type) {
	case *ast.ParenExpr:
		return nl.constVal(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.SUB {
			if c, ok := nl.constVal(v.X); ok {
				return -c, true
			}
		}
		return 0, false
	case *ast.BasicLit:
		if v.Kind != token.INT {
			return 0, false
		}
		c, err := strconv.ParseInt(v.Value, 0, 64)
		if err != nil {
			return 0, false
		}
		return c, true
	}
	return 0, false
}
