// Package expr provides the expressions of a loop body: affine subscripts
// over loop index variables, and the value expressions that statements
// compute (see Value).
//
// The dependence analysis in this repository (package deps) handles exactly
// the class of subscripts the paper treats: affine expressions with constant
// coefficients, e.g. A[I+3], A[2*I-1], A[I, J-1]. An Affine value represents
//
//	c0 + c1*x1 + c2*x2 + ... + cn*xn
//
// where x1..xn are the index variables of the enclosing loop nest, outermost
// first.
package expr

import (
	"fmt"
	"strings"
)

// Affine is an affine expression over a loop nest's index variables.
// Coef[k] multiplies the k-th index variable (outermost first); Const is the
// additive constant. The zero value is the constant 0 over no variables.
type Affine struct {
	Coef  []int64
	Const int64
}

// Const returns the constant expression c over n index variables.
func Const(n int, c int64) Affine {
	return Affine{Coef: make([]int64, n), Const: c}
}

// Index returns the expression x_k + c over n index variables (k is
// zero-based, outermost first).
func Index(n, k int, c int64) Affine {
	a := Const(n, c)
	a.Coef[k] = 1
	return a
}

// Scaled returns the expression m*x_k + c over n index variables.
func Scaled(n, k int, m, c int64) Affine {
	a := Const(n, c)
	a.Coef[k] = m
	return a
}

// Arity reports the number of index variables the expression ranges over.
func (a Affine) Arity() int { return len(a.Coef) }

// Eval evaluates the expression at the given index vector. It panics if the
// vector length does not match the expression's arity; mixing expressions
// from different nests is a programming error, not an input error.
func (a Affine) Eval(idx []int64) int64 {
	if len(idx) != len(a.Coef) {
		panic(fmt.Sprintf("expr: Eval with %d indices on arity-%d expression", len(idx), len(a.Coef)))
	}
	v := a.Const
	for k, c := range a.Coef {
		v += c * idx[k]
	}
	return v
}

// Add returns a+b. Both must have the same arity.
func (a Affine) Add(b Affine) Affine {
	checkArity(a, b)
	out := Affine{Coef: make([]int64, len(a.Coef)), Const: a.Const + b.Const}
	for k := range a.Coef {
		out.Coef[k] = a.Coef[k] + b.Coef[k]
	}
	return out
}

// Sub returns a-b. Both must have the same arity.
func (a Affine) Sub(b Affine) Affine {
	checkArity(a, b)
	out := Affine{Coef: make([]int64, len(a.Coef)), Const: a.Const - b.Const}
	for k := range a.Coef {
		out.Coef[k] = a.Coef[k] - b.Coef[k]
	}
	return out
}

// Scale returns c*a.
func (a Affine) Scale(c int64) Affine {
	out := Const(len(a.Coef), a.Const*c)
	for k, coef := range a.Coef {
		out.Coef[k] = coef * c
	}
	return out
}

// AddConst returns the expression shifted by c.
func (a Affine) AddConst(c int64) Affine {
	out := a.clone()
	out.Const += c
	return out
}

// Equal reports whether a and b denote the same expression.
func (a Affine) Equal(b Affine) bool {
	if len(a.Coef) != len(b.Coef) || a.Const != b.Const {
		return false
	}
	for k := range a.Coef {
		if a.Coef[k] != b.Coef[k] {
			return false
		}
	}
	return true
}

// IsConst reports whether the expression has no variable part.
func (a Affine) IsConst() bool {
	for _, c := range a.Coef {
		if c != 0 {
			return false
		}
	}
	return true
}

// SoleVar returns (k, coef, true) if exactly one index variable appears,
// where k is its position and coef its coefficient. Otherwise ok is false.
func (a Affine) SoleVar() (k int, coef int64, ok bool) {
	k = -1
	for i, c := range a.Coef {
		if c == 0 {
			continue
		}
		if k >= 0 {
			return 0, 0, false
		}
		k, coef = i, c
	}
	if k < 0 {
		return 0, 0, false
	}
	return k, coef, true
}

func (a Affine) clone() Affine {
	out := Affine{Coef: make([]int64, len(a.Coef)), Const: a.Const}
	copy(out.Coef, a.Coef)
	return out
}

func checkArity(a, b Affine) {
	if len(a.Coef) != len(b.Coef) {
		panic(fmt.Sprintf("expr: arity mismatch %d vs %d", len(a.Coef), len(b.Coef)))
	}
}

// String renders the expression using the provided conventional index names
// I, J, K, ... for the first variables and x4, x5, ... beyond that.
func (a Affine) String() string {
	return a.Format(defaultNames(len(a.Coef)))
}

// Format renders the expression with the given variable names.
func (a Affine) Format(names []string) string {
	var b strings.Builder
	first := true
	for k, c := range a.Coef {
		if c == 0 {
			continue
		}
		name := "?"
		if k < len(names) {
			name = names[k]
		}
		switch {
		case first && c == 1:
			b.WriteString(name)
		case first && c == -1:
			b.WriteString("-" + name)
		case first:
			fmt.Fprintf(&b, "%d*%s", c, name)
		case c == 1:
			b.WriteString("+" + name)
		case c == -1:
			b.WriteString("-" + name)
		case c > 0:
			fmt.Fprintf(&b, "+%d*%s", c, name)
		default:
			fmt.Fprintf(&b, "-%d*%s", -c, name)
		}
		first = false
	}
	if first {
		return fmt.Sprintf("%d", a.Const)
	}
	if a.Const > 0 {
		fmt.Fprintf(&b, "+%d", a.Const)
	} else if a.Const < 0 {
		fmt.Fprintf(&b, "%d", a.Const)
	}
	return b.String()
}

func defaultNames(n int) []string {
	base := []string{"I", "J", "K", "L"}
	names := make([]string, n)
	for i := range names {
		if i < len(base) {
			names[i] = base[i]
		} else {
			names[i] = fmt.Sprintf("x%d", i+1)
		}
	}
	return names
}

// GCD returns the greatest common divisor of a and b (non-negative; GCD(0,0)=0).
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
