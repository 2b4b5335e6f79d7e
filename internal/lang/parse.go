package lang

import (
	"fmt"
	"math"
	"strings"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
)

// ---- Parser ----

type parser struct {
	toks    []token
	pos     int
	indexes []loop.Index
	stmtSeq int
	sem     map[*deps.Stmt]codegen.Sem
	locals  expr.Locals
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

// acceptPunct consumes the next token if it is the punctuation s.
func (p *parser) acceptPunct(s string) bool {
	if t := p.peek(); t.kind != tokPunct || t.text != s {
		return false
	}
	p.pos++
	return true
}

// expectKeyword consumes the keywords kws in order.
func (p *parser) expectKeyword(kws ...string) error {
	for _, kw := range kws {
		if t := p.next(); t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
			return fmt.Errorf("line %d: expected %s, got %s", t.line, kw, t)
		}
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
	p := &parser{toks: toks, sem: make(map[*deps.Stmt]codegen.Sem), locals: make(expr.Locals)}
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
		if err := p.expectKeyword("END", "DO"); err != nil {
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
	return &codegen.Workload{Name: "dsl", Nest: nest, Sem: p.sem, Locals: len(p.locals), Setup: DefaultSetup(nest)}, nil
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
	neg := p.acceptPunct("-")
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
	cond, err := p.parseCond()
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
	if err := p.expectKeyword("END", "IF"); err != nil {
		return nil, err
	}
	return loop.If(cond, thenBody, elseBody), nil
}

// parseCond parses ODD(I), EVEN(I), or I <cmp> number.
func (p *parser) parseCond() (loop.Cond, error) {
	t := p.next()
	if t.kind != tokIdent {
		return loop.Cond{}, fmt.Errorf("line %d: expected condition, got %s", t.line, t)
	}
	upper := strings.ToUpper(t.text)
	if upper == "ODD" || upper == "EVEN" {
		if err := p.expectPunct("("); err != nil {
			return loop.Cond{}, err
		}
		v := p.next()
		k := p.indexOf(v.text)
		if v.kind != tokIdent || k < 0 {
			return loop.Cond{}, fmt.Errorf("line %d: %s needs a loop index, got %s", v.line, upper, v)
		}
		if err := p.expectPunct(")"); err != nil {
			return loop.Cond{}, err
		}
		return p.indexCond(k, upper, 0), nil
	}
	k := p.indexOf(t.text)
	if k < 0 {
		return loop.Cond{}, fmt.Errorf("line %d: unknown index %q in condition", t.line, t.text)
	}
	cmp := p.next()
	if cmp.kind != tokCompare || !loop.IsComparison(cmp.text) {
		return loop.Cond{}, fmt.Errorf("line %d: expected comparison, got %s", cmp.line, cmp)
	}
	rhs, err := p.parseInt()
	if err != nil {
		return loop.Cond{}, err
	}
	return p.indexCond(k, cmp.text, rhs), nil
}

// indexCond is the condition testing index k with op against c.
func (p *parser) indexCond(k int, op string, c int64) loop.Cond {
	return loop.Cond{Index: p.indexes[k].Name, Var: expr.Var{K: k, Scale: 1}, Op: op, C: c}
}

// parseStmt parses "[label:] lhs = expr [@cost]".
func (p *parser) parseStmt() (*deps.Stmt, error) {
	first := p.next()
	if first.kind != tokIdent {
		return nil, fmt.Errorf("line %d: expected statement, got %s", first.line, first)
	}
	label, lhs := "", first
	if p.acceptPunct(":") {
		label, lhs = first.text, p.next()
		if lhs.kind != tokIdent {
			return nil, fmt.Errorf("line %d: expected assignment target, got %s", lhs.line, lhs)
		}
	}
	p.stmtSeq++
	if label == "" {
		label = fmt.Sprintf("S%d", p.stmtSeq)
	}
	st := &deps.Stmt{Name: label, Cost: 1}

	// LHS: array reference or scalar local.
	var writeLocal string
	if p.acceptPunct("[") {
		ref, err := p.parseRefIndices(lhs.text)
		if err != nil {
			return nil, err
		}
		st.Writes = []deps.Ref{ref}
	} else {
		if p.indexOf(lhs.text) >= 0 {
			return nil, fmt.Errorf("lang: cannot assign to loop index %s", lhs.text)
		}
		writeLocal = lhs.text
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr(st)
	if err != nil {
		return nil, err
	}
	if p.acceptPunct("@") {
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
	p.sem[st] = p.locals.Sem(writeLocal, rhs)
	return st, nil
}

// parseRefIndices parses "aff, aff, ...]", the subscripts of the named
// array after its "[".
func (p *parser) parseRefIndices(array string) (deps.Ref, error) {
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
			if p.acceptPunct("*") {
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
func (p *parser) parseExpr(st *deps.Stmt) (expr.Value, error) {
	return p.parseChain(st, "+-", p.parseTerm)
}

func (p *parser) parseTerm(st *deps.Stmt) (expr.Value, error) {
	return p.parseChain(st, "*", p.parseFactor)
}

// parseChain parses operands joined, left to right, by the one-character
// operators in ops.
func (p *parser) parseChain(st *deps.Stmt, ops string, operand func(*deps.Stmt) (expr.Value, error)) (expr.Value, error) {
	left, err := operand(st)
	for err == nil {
		t := p.peek()
		if t.kind != tokPunct || !strings.Contains(ops, t.text) {
			break
		}
		p.pos++
		var right expr.Value
		if right, err = operand(st); err == nil {
			left = expr.Bin{Op: t.text[0], L: left, R: right}
		}
	}
	return left, err
}

func (p *parser) parseFactor(st *deps.Stmt) (expr.Value, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		return expr.Num(t.num), nil
	case t.kind == tokPunct && t.text == "-":
		inner, err := p.parseFactor(st)
		if err != nil {
			return nil, err
		}
		return expr.Neg(inner), nil
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
		if p.acceptPunct("[") {
			ref, err := p.parseRefIndices(t.text)
			if err != nil {
				return nil, err
			}
			st.Reads = append(st.Reads, ref)
			return expr.Read(len(st.Reads) - 1), nil
		}
		if k := p.indexOf(t.text); k >= 0 {
			return expr.Var{K: k, Scale: 1}, nil
		}
		return expr.Local(p.locals.Slot(t.text)), nil
	default:
		return nil, fmt.Errorf("line %d: unexpected %s in expression", t.line, t)
	}
}

// DefaultSetup builds a Setup that declares every referenced array with
// bounds inferred from the subscripts over the iteration space (see
// addRef), initialized deterministically from name and coordinates. It is
// shared with the Go frontend so a .do program and its Go-source twin see
// identical inputs.
func DefaultSetup(n *loop.Nest) func(mem *sim.Mem) {
	boxes := addBoxes(nil, n.Indexes, n.Body)
	return func(mem *sim.Mem) {
		for _, b := range boxes {
			nameV := int64(0)
			for _, ch := range b.array {
				nameV = nameV*31 + int64(ch)
			}
			if b.dims == 1 {
				a := mem.Array(b.array, int64(b.min[0]), int64(b.max[0]))
				for i := a.Lo; i <= a.Hi; i++ {
					a.Set(i, nameV%1000+13*i)
				}
			} else {
				g := mem.Grid(b.array, int64(b.min[0]), int64(b.max[0]), int64(b.min[1]), int64(b.max[1]))
				for i := g.Lo1; i <= g.Hi1; i++ {
					for j := g.Lo2; j <= g.Hi2; j++ {
						g.Set(i, j, nameV%1000+13*i+7*j)
					}
				}
			}
		}
	}
}

// Footprint returns the nest's iteration count and the total element count
// of the arrays DefaultSetup declares for it. Both are computed in float64,
// so no loop bound or subscript can overflow them; they are exact below
// 2^53, far above any size a caller would run. Footprint does not
// allocate: it sits on every request's build path.
func Footprint(n *loop.Nest) (iterations, elements float64) {
	iterations = 1
	for _, ix := range n.Indexes {
		iterations *= float64(ix.Hi) - float64(ix.Lo) + 1
	}
	var buf [8]arrayBox
	for _, b := range addBoxes(buf[:0], n.Indexes, n.Body) {
		size := 1.0
		for d := 0; d < b.dims; d++ {
			size *= b.max[d] - b.min[d] + 1
		}
		elements += size
	}
	return iterations, elements
}

// arrayBox is the bounding box of one array's subscripts over the
// iteration space. A one-dimensional array uses only min[0] and max[0].
type arrayBox struct {
	array    string
	dims     int
	min, max [2]float64
}

// addBoxes widens boxes by every reference of the statements in nodes.
func addBoxes(boxes []arrayBox, ixs []loop.Index, nodes []loop.Node) []arrayBox {
	for _, node := range nodes {
		switch v := node.(type) {
		case loop.StmtNode:
			for _, refs := range [2][]deps.Ref{v.S.Writes, v.S.Reads} {
				for _, r := range refs {
					boxes = addRef(boxes, ixs, r)
				}
			}
		case loop.IfNode:
			boxes = addBoxes(boxes, ixs, v.Then)
			boxes = addBoxes(boxes, ixs, v.Else)
		}
	}
	return boxes
}

// addRef widens r's array box by r's subscripts. An affine subscript
// reaches its extrema at the corners of the iteration space, so each term
// adds the smaller or larger of its values at its index's two bounds.
func addRef(boxes []arrayBox, ixs []loop.Index, r deps.Ref) []arrayBox {
	k := 0
	for k < len(boxes) && boxes[k].array != r.Array {
		k++
	}
	if k == len(boxes) {
		inf := math.Inf(1)
		boxes = append(boxes, arrayBox{array: r.Array, dims: len(r.Index),
			min: [2]float64{inf, inf}, max: [2]float64{-inf, -inf}})
	}
	b := &boxes[k]
	for d, sub := range r.Index {
		lo, hi := float64(sub.Const), float64(sub.Const)
		for i, c := range sub.Coef {
			a, z := float64(c)*float64(ixs[i].Lo), float64(c)*float64(ixs[i].Hi)
			lo, hi = lo+math.Min(a, z), hi+math.Max(a, z)
		}
		b.min[d], b.max[d] = math.Min(b.min[d], lo), math.Max(b.max[d], hi)
	}
	return boxes
}
