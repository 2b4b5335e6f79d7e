package lang

import (
	"fmt"
	"strings"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
)

// ---- Expression AST with executable semantics ----

// env is what an expression reads: the iteration's index vector, the
// statement's array read values and the iteration's local slots. It is
// passed by value (the buffers are the caller's), so evaluation allocates
// nothing.
type env struct {
	idx, in, locals []int64
}

type exprNode interface{ eval(e env) int64 }

type numExpr int64

func (n numExpr) eval(env) int64 { return int64(n) }

type indexExpr int

func (k indexExpr) eval(e env) int64 { return e.idx[k] }

// localExpr reads a scalar local's slot.
type localExpr int

func (l localExpr) eval(e env) int64 { return e.locals[l] }

// refExpr reads the statement's slot-th array read value (bound by codegen).
type refExpr struct{ slot int }

func (r refExpr) eval(e env) int64 { return e.in[r.slot] }

type binExpr struct {
	op   byte
	l, r exprNode
}

func (b binExpr) eval(e env) int64 {
	lv, rv := b.l.eval(e), b.r.eval(e)
	switch b.op {
	case '+':
		return lv + rv
	case '-':
		return lv - rv
	case '*':
		return lv * rv
	}
	panic("lang: unknown operator")
}

// ---- Parser ----

type parser struct {
	toks    []token
	pos     int
	indexes []loop.Index
	stmtSeq int
	sem     map[*deps.Stmt]codegen.Sem
	// locals numbers the scalar locals' slots in order of first mention.
	locals map[string]int
}

// local returns the slot of the named scalar local.
func (p *parser) local(name string) int {
	slot, ok := p.locals[name]
	if !ok {
		slot = len(p.locals)
		p.locals[name] = slot
	}
	return slot
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) skipNL() {
	for p.peek().kind == tokNewline {
		p.pos++
	}
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("line %d: expected %q, got %s", t.line, s, t)
	}
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("line %d: expected %s, got %s", t.line, kw, t)
	}
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) indexOf(name string) int {
	for k, ix := range p.indexes {
		if strings.EqualFold(ix.Name, name) {
			return k
		}
	}
	return -1
}

// Parse parses a loop program and returns an executable workload. Array
// elements are initialized deterministically from the array name and
// coordinates, so two schemes over the same source see identical inputs.
func Parse(src string) (*codegen.Workload, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, sem: make(map[*deps.Stmt]codegen.Sem), locals: make(map[string]int)}
	p.skipNL()
	for p.atKeyword("DO") {
		if err := p.parseDoHeader(); err != nil {
			return nil, err
		}
		p.skipNL()
	}
	if len(p.indexes) == 0 {
		return nil, fmt.Errorf("lang: program must start with a DO header")
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	for range p.indexes {
		if err := p.expectKeyword("END"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("DO"); err != nil {
			return nil, err
		}
		p.skipNL()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input after END DO: %s", p.peek())
	}
	nest, err := loop.New(p.indexes, body)
	if err != nil {
		return nil, err
	}
	w := &codegen.Workload{Name: "dsl", Nest: nest, Sem: p.sem, Locals: len(p.locals)}
	w.Setup = DefaultSetup(nest)
	return w, nil
}

// parseDoHeader parses "DO I = lo, hi".
func (p *parser) parseDoHeader() error {
	if err := p.expectKeyword("DO"); err != nil {
		return err
	}
	name := p.next()
	if name.kind != tokIdent {
		return fmt.Errorf("line %d: expected index name, got %s", name.line, name)
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	lo, err := p.parseInt()
	if err != nil {
		return err
	}
	if err := p.expectPunct(","); err != nil {
		return err
	}
	hi, err := p.parseInt()
	if err != nil {
		return err
	}
	if hi < lo {
		return fmt.Errorf("lang: DO %s = %d, %d is empty", name.text, lo, hi)
	}
	p.indexes = append(p.indexes, loop.Index{Name: strings.ToUpper(name.text), Lo: lo, Hi: hi})
	return nil
}

func (p *parser) parseInt() (int64, error) {
	neg := false
	if t := p.peek(); t.kind == tokPunct && t.text == "-" {
		p.pos++
		neg = true
	}
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("line %d: expected number, got %s", t.line, t)
	}
	if neg {
		return -t.num, nil
	}
	return t.num, nil
}

// parseBody parses statements and IF blocks until END or ELSE.
func (p *parser) parseBody() ([]loop.Node, error) {
	var nodes []loop.Node
	for {
		p.skipNL()
		switch {
		case p.peek().kind == tokEOF, p.atKeyword("END"), p.atKeyword("ELSE"):
			return nodes, nil
		case p.atKeyword("IF"):
			n, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		default:
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, loop.S(s))
		}
	}
}

// parseIf parses IF cond THEN body [ELSE body] END IF.
func (p *parser) parseIf() (loop.Node, error) {
	if err := p.expectKeyword("IF"); err != nil {
		return nil, err
	}
	cond, name, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("THEN"); err != nil {
		return nil, err
	}
	thenBody, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	var elseBody []loop.Node
	if p.atKeyword("ELSE") {
		p.pos++
		elseBody, err = p.parseBody()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("IF"); err != nil {
		return nil, err
	}
	return loop.IfNode{Name: name, Cond: cond, Then: thenBody, Else: elseBody}, nil
}

// parseCond parses ODD(I), EVEN(I), or I <cmp> number.
func (p *parser) parseCond() (func(idx []int64) bool, string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, "", fmt.Errorf("line %d: expected condition, got %s", t.line, t)
	}
	upper := strings.ToUpper(t.text)
	if upper == "ODD" || upper == "EVEN" {
		if err := p.expectPunct("("); err != nil {
			return nil, "", err
		}
		v := p.next()
		k := p.indexOf(v.text)
		if v.kind != tokIdent || k < 0 {
			return nil, "", fmt.Errorf("line %d: %s needs a loop index, got %s", v.line, upper, v)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, "", err
		}
		want := int64(1)
		if upper == "EVEN" {
			want = 0
		}
		name := fmt.Sprintf("%s(%s)", upper, strings.ToUpper(v.text))
		return func(idx []int64) bool {
			m := idx[k] % 2
			if m < 0 {
				m += 2
			}
			return m == want
		}, name, nil
	}
	k := p.indexOf(t.text)
	if k < 0 {
		return nil, "", fmt.Errorf("line %d: unknown index %q in condition", t.line, t.text)
	}
	cmp := p.next()
	if cmp.kind != tokCompare {
		return nil, "", fmt.Errorf("line %d: expected comparison, got %s", cmp.line, cmp)
	}
	rhs, err := p.parseInt()
	if err != nil {
		return nil, "", err
	}
	name := fmt.Sprintf("%s%s%d", strings.ToUpper(t.text), cmp.text, rhs)
	op := cmp.text
	return func(idx []int64) bool {
		v := idx[k]
		switch op {
		case "<":
			return v < rhs
		case "<=":
			return v <= rhs
		case ">":
			return v > rhs
		case ">=":
			return v >= rhs
		case "==":
			return v == rhs
		case "!=":
			return v != rhs
		}
		return false
	}, name, nil
}

// parseStmt parses "[label:] lhs = expr [@cost]".
func (p *parser) parseStmt() (*deps.Stmt, error) {
	first := p.next()
	if first.kind != tokIdent {
		return nil, fmt.Errorf("line %d: expected statement, got %s", first.line, first)
	}
	label := ""
	lhsName := first.text
	if t := p.peek(); t.kind == tokPunct && t.text == ":" {
		p.pos++
		label = first.text
		lhs := p.next()
		if lhs.kind != tokIdent {
			return nil, fmt.Errorf("line %d: expected assignment target, got %s", lhs.line, lhs)
		}
		lhsName = lhs.text
	}
	p.stmtSeq++
	if label == "" {
		label = fmt.Sprintf("S%d", p.stmtSeq)
	}
	st := &deps.Stmt{Name: label, Cost: 1}

	// LHS: array reference or scalar local.
	var writeLocal string
	if t := p.peek(); t.kind == tokPunct && t.text == "[" {
		ref, err := p.parseRefIndices(lhsName)
		if err != nil {
			return nil, err
		}
		st.Writes = []deps.Ref{ref}
	} else {
		if p.indexOf(lhsName) >= 0 {
			return nil, fmt.Errorf("lang: cannot assign to loop index %s", lhsName)
		}
		writeLocal = lhsName
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr(st)
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokPunct && t.text == "@" {
		p.pos++
		cost, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if cost < 0 {
			return nil, fmt.Errorf("lang: negative cost on %s", label)
		}
		st.Cost = cost
	}
	if t := p.peek(); t.kind != tokNewline && t.kind != tokEOF {
		return nil, p.errf("unexpected %s after statement %s", t, label)
	}
	if len(st.Writes) > 0 {
		p.sem[st] = func(idx, in, locals, out []int64) {
			out[0] = rhs.eval(env{idx: idx, in: in, locals: locals})
		}
	} else {
		slot := p.local(writeLocal)
		p.sem[st] = func(idx, in, locals, _ []int64) {
			locals[slot] = rhs.eval(env{idx: idx, in: in, locals: locals})
		}
	}
	return st, nil
}

// parseRefIndices parses "[aff, aff, ...]" for the named array.
func (p *parser) parseRefIndices(array string) (deps.Ref, error) {
	if err := p.expectPunct("["); err != nil {
		return deps.Ref{}, err
	}
	var subs []expr.Affine
	for {
		a, err := p.parseAffine()
		if err != nil {
			return deps.Ref{}, err
		}
		subs = append(subs, a)
		t := p.next()
		if t.kind == tokPunct && t.text == "]" {
			break
		}
		if !(t.kind == tokPunct && t.text == ",") {
			return deps.Ref{}, fmt.Errorf("line %d: expected , or ] in subscript, got %s", t.line, t)
		}
	}
	if len(subs) > 2 {
		return deps.Ref{}, fmt.Errorf("lang: array %s has %d subscripts; at most 2 supported", array, len(subs))
	}
	return deps.Ref{Array: strings.ToUpper(array), Index: subs}, nil
}

// parseAffine parses an affine combination of loop indexes and constants.
func (p *parser) parseAffine() (expr.Affine, error) {
	depth := len(p.indexes)
	out := expr.Const(depth, 0)
	sign := int64(1)
	for {
		t := p.next()
		switch {
		case t.kind == tokNumber:
			c := t.num
			// Optional "* IDENT" after a coefficient.
			if nt := p.peek(); nt.kind == tokPunct && nt.text == "*" {
				p.pos++
				v := p.next()
				k := p.indexOf(v.text)
				if v.kind != tokIdent || k < 0 {
					return out, fmt.Errorf("line %d: expected loop index after %d*, got %s", v.line, c, v)
				}
				out = out.Add(expr.Scaled(depth, k, sign*c, 0))
			} else {
				out = out.AddConst(sign * c)
			}
		case t.kind == tokIdent:
			k := p.indexOf(t.text)
			if k < 0 {
				return out, fmt.Errorf("line %d: unknown index %q in subscript", t.line, t.text)
			}
			out = out.Add(expr.Scaled(depth, k, sign, 0))
		default:
			return out, fmt.Errorf("line %d: unexpected %s in subscript", t.line, t)
		}
		nt := p.peek()
		if nt.kind == tokPunct && (nt.text == "+" || nt.text == "-") {
			sign = 1
			if nt.text == "-" {
				sign = -1
			}
			p.pos++
			continue
		}
		return out, nil
	}
}

// parseExpr parses the right-hand side: terms joined by + and - (with *
// binding tighter), where a term is a number, a loop index, a local scalar,
// or an array reference (which becomes a read of the statement).
func (p *parser) parseExpr(st *deps.Stmt) (exprNode, error) {
	left, err := p.parseTerm(st)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokPunct && (t.text == "+" || t.text == "-") {
			p.pos++
			right, err := p.parseTerm(st)
			if err != nil {
				return nil, err
			}
			left = binExpr{op: t.text[0], l: left, r: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseTerm(st *deps.Stmt) (exprNode, error) {
	left, err := p.parseFactor(st)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokPunct && t.text == "*" {
			p.pos++
			right, err := p.parseFactor(st)
			if err != nil {
				return nil, err
			}
			left = binExpr{op: '*', l: left, r: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseFactor(st *deps.Stmt) (exprNode, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		return numExpr(t.num), nil
	case t.kind == tokPunct && t.text == "-":
		inner, err := p.parseFactor(st)
		if err != nil {
			return nil, err
		}
		return binExpr{op: '-', l: numExpr(0), r: inner}, nil
	case t.kind == tokPunct && t.text == "(":
		inner, err := p.parseExpr(st)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case t.kind == tokIdent:
		if nt := p.peek(); nt.kind == tokPunct && nt.text == "[" {
			ref, err := p.parseRefIndices(t.text)
			if err != nil {
				return nil, err
			}
			slot := len(st.Reads)
			st.Reads = append(st.Reads, ref)
			return refExpr{slot: slot}, nil
		}
		if k := p.indexOf(t.text); k >= 0 {
			return indexExpr(k), nil
		}
		return localExpr(p.local(t.text)), nil
	default:
		return nil, fmt.Errorf("line %d: unexpected %s in expression", t.line, t)
	}
}

// DefaultSetup builds a Setup that declares every referenced array with
// bounds inferred from the subscripts over the iteration space (affine
// subscripts reach their extrema at the corner index vectors), initialized
// deterministically from name and coordinates. It is shared with the Go
// frontend so a .do program and its Go-source twin see identical inputs.
func DefaultSetup(n *loop.Nest) func(mem *sim.Mem) {
	type bounds struct {
		dims     int
		min, max [2]int64
	}
	const huge = int64(1) << 62
	all := make(map[string]*bounds)
	corners := cornerVectors(n)
	for _, s := range n.Stmts() {
		for _, r := range append(append([]deps.Ref{}, s.Writes...), s.Reads...) {
			b := all[r.Array]
			if b == nil {
				b = &bounds{dims: len(r.Index), min: [2]int64{huge, huge}, max: [2]int64{-huge, -huge}}
				all[r.Array] = b
			}
			for d, sub := range r.Index {
				for _, idx := range corners {
					v := sub.Eval(idx)
					if v < b.min[d] {
						b.min[d] = v
					}
					if v > b.max[d] {
						b.max[d] = v
					}
				}
			}
		}
	}
	return func(mem *sim.Mem) {
		for name, b := range all {
			nameV := int64(0)
			for _, ch := range name {
				nameV = nameV*31 + int64(ch)
			}
			if b.dims == 1 {
				a := mem.Array(name, b.min[0], b.max[0])
				for i := a.Lo; i <= a.Hi; i++ {
					a.Set(i, nameV%1000+13*i)
				}
			} else {
				g := mem.Grid(name, b.min[0], b.max[0], b.min[1], b.max[1])
				for i := g.Lo1; i <= g.Hi1; i++ {
					for j := g.Lo2; j <= g.Hi2; j++ {
						g.Set(i, j, nameV%1000+13*i+7*j)
					}
				}
			}
		}
	}
}

// cornerVectors returns the 2^depth corner index vectors of the space.
func cornerVectors(n *loop.Nest) [][]int64 {
	depth := n.Depth()
	out := make([][]int64, 0, 1<<depth)
	for mask := 0; mask < 1<<depth; mask++ {
		idx := make([]int64, depth)
		for k, ix := range n.Indexes {
			if mask&(1<<k) != 0 {
				idx[k] = ix.Hi
			} else {
				idx[k] = ix.Lo
			}
		}
		out = append(out, idx)
	}
	return out
}
