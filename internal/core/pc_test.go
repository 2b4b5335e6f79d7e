package core

import (
	"strings"
	"testing"
	"testing/quick"
)

// unpack decodes a packed PC.
func unpack(v int64) PC {
	return PC{Owner: v >> StepBits, Step: v & MaxStep}
}

// GE reports p >= q in lexicographic order: the order of Fig 4.2a that
// Pack's integer order must match and the hand protocol models check.
func (p PC) GE(q PC) bool {
	if p.Owner != q.Owner {
		return p.Owner > q.Owner
	}
	return p.Step >= q.Step
}

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []PC{
		{0, 0}, {1, 0}, {1, 1}, {7, 19}, {MaxOwner, MaxStep}, {1 << 30, 3},
	}
	for _, p := range cases {
		if got := unpack(p.Pack()); got != p {
			t.Errorf("unpack(Pack(%v)) = %v", p, got)
		}
	}
}

func TestPackOrderMatchesLexicographic(t *testing.T) {
	f := func(o1, o2 uint16, s1, s2 uint8) bool {
		p := PC{Owner: int64(o1), Step: int64(s1)}
		q := PC{Owner: int64(o2), Step: int64(s2)}
		return (p.Pack() >= q.Pack()) == p.GE(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackRangeChecks(t *testing.T) {
	for _, p := range []PC{{-1, 0}, {0, -1}, {MaxOwner + 1, 0}, {0, MaxStep + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pack(%v) did not panic", p)
				}
			}()
			p.Pack()
		}()
	}
}

func TestGE(t *testing.T) {
	cases := []struct {
		p, q PC
		want bool
	}{
		{PC{2, 0}, PC{1, 9}, true}, // higher owner dominates any step
		{PC{1, 9}, PC{2, 0}, false},
		{PC{3, 4}, PC{3, 4}, true},
		{PC{3, 5}, PC{3, 4}, true},
		{PC{3, 3}, PC{3, 4}, false},
	}
	for _, c := range cases {
		if got := c.p.GE(c.q); got != c.want {
			t.Errorf("%v.GE(%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestFold(t *testing.T) {
	// Processes i, X+i, 2X+i share PC[(i-1) mod X].
	if Fold(1, 4) != 0 || Fold(4, 4) != 3 || Fold(5, 4) != 0 || Fold(9, 4) != 0 {
		t.Error("Fold mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Fold(0) did not panic")
		}
	}()
	Fold(0, 4)
}

// TestFoldValidatesX: a non-positive X must produce Fold's own diagnostic,
// not the runtime's bare integer-divide-by-zero panic.
func TestFoldValidatesX(t *testing.T) {
	for _, x := range []int{0, -1, -8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("Fold(1, %d) did not panic", x)
					return
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "physical PCs") {
					t.Errorf("Fold(1, %d) panicked with %v, want the core diagnostic", x, r)
				}
			}()
			Fold(1, x)
		}()
	}
	// The iter check still fires first (and Fold(0, 0) must not divide).
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "must be >= 1") {
				t.Errorf("Fold(0, 0) panicked with %v, want the iteration diagnostic", r)
			}
		}()
		Fold(0, 0)
	}()
}

func TestInitialPC(t *testing.T) {
	// The paper: initially PC[i] = <i, 0> for 1 <= i <= X.
	for slot := 0; slot < 5; slot++ {
		p := InitialPC(slot)
		if p.Owner != int64(slot)+1 || p.Step != 0 {
			t.Errorf("InitialPC(%d) = %v", slot, p)
		}
	}
}

func TestFoldSharing(t *testing.T) {
	f := func(rawIter uint16, rawX uint8) bool {
		iter := int64(rawIter) + 1
		x := int(rawX)%16 + 1
		// iter and iter+X share a slot; iter and iter+1 do so only if X==1.
		if Fold(iter, x) != Fold(iter+int64(x), x) {
			return false
		}
		if x > 1 && Fold(iter, x) == Fold(iter+1, x) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
