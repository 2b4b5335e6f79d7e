// Package sim implements a deterministic discrete-event simulator of a
// small-scale shared-memory multiprocessor in the style the paper assumes
// (Alliant FX/8, Cray X-MP class): P processors, a dedicated synchronization
// bus that broadcasts synchronization-register writes to per-processor local
// images (section 6), and interleaved single-ported memory modules with FIFO
// service queues (for data-oriented keys and barrier hot-spot studies).
//
// Programs are sequences of Ops per process (loop iteration). Busy-waiting
// is the synchronization model throughout, per the paper: waits on
// synchronization registers spin on the local image (no traffic; the
// simulator wakes them event-driven when a broadcast commits), while waits
// on memory-resident variables generate polling traffic through the module
// queue — which is exactly what creates the hot spot a counter barrier
// suffers from.
//
// The simulator is deterministic: identical inputs produce identical cycle
// counts, so tests assert exact numbers. Statement semantics (op effects)
// are applied at op completion in global event order, which lets tests
// check serial equivalence: a synchronization scheme that fails to enforce
// a dependence produces different array contents than serial execution.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Array is a one-dimensional model array with inclusive bounds [Lo, Hi].
type Array struct {
	Name   string
	Lo, Hi int64
	vals   []int64
}

// NewArray allocates an array covering [lo, hi], zero-initialized.
func NewArray(name string, lo, hi int64) *Array {
	if hi < lo {
		panic(fmt.Sprintf("sim: array %s has empty range [%d,%d]", name, lo, hi))
	}
	return &Array{Name: name, Lo: lo, Hi: hi, vals: make([]int64, hi-lo+1)}
}

// Get reads element i; out-of-range access panics (workloads must allocate
// explicit margins, mirroring Fortran array declarations).
func (a *Array) Get(i int64) int64 {
	return a.vals[a.slot(i)]
}

// Set writes element i.
func (a *Array) Set(i, v int64) {
	a.vals[a.slot(i)] = v
}

func (a *Array) slot(i int64) int64 {
	if i < a.Lo || i > a.Hi {
		panic(fmt.Sprintf("sim: array %s index %d out of range [%d,%d]", a.Name, i, a.Lo, a.Hi))
	}
	return i - a.Lo
}

// Len returns the number of elements.
func (a *Array) Len() int64 { return a.Hi - a.Lo + 1 }

// Grid is a two-dimensional model array with inclusive bounds.
type Grid struct {
	Name           string
	Lo1, Hi1       int64
	Lo2, Hi2       int64
	vals           []int64
	cols, elements int64
}

// NewGrid allocates a grid covering [lo1,hi1] x [lo2,hi2], zero-initialized.
func NewGrid(name string, lo1, hi1, lo2, hi2 int64) *Grid {
	if hi1 < lo1 || hi2 < lo2 {
		panic(fmt.Sprintf("sim: grid %s has empty range", name))
	}
	cols := hi2 - lo2 + 1
	n := (hi1 - lo1 + 1) * cols
	return &Grid{Name: name, Lo1: lo1, Hi1: hi1, Lo2: lo2, Hi2: hi2,
		vals: make([]int64, n), cols: cols, elements: n}
}

// Get reads element (i,j).
func (g *Grid) Get(i, j int64) int64 { return g.vals[g.slot(i, j)] }

// Set writes element (i,j).
func (g *Grid) Set(i, j, v int64) { g.vals[g.slot(i, j)] = v }

func (g *Grid) slot(i, j int64) int64 {
	if i < g.Lo1 || i > g.Hi1 || j < g.Lo2 || j > g.Hi2 {
		panic(fmt.Sprintf("sim: grid %s index (%d,%d) out of range", g.Name, i, j))
	}
	return (i-g.Lo1)*g.cols + (j - g.Lo2)
}

// Len returns the number of elements.
func (g *Grid) Len() int64 { return g.elements }

// Mem is the model data memory: named arrays and grids plus a scalar pool.
// It is the workload state the serial-equivalence oracle compares.
type Mem struct {
	arrays  map[string]*Array
	grids   map[string]*Grid
	scalars map[string]int64
}

// NewMem returns an empty memory.
func NewMem() *Mem {
	return &Mem{
		arrays:  make(map[string]*Array),
		grids:   make(map[string]*Grid),
		scalars: make(map[string]int64),
	}
}

// Array declares (or returns the existing) array with the given bounds.
func (m *Mem) Array(name string, lo, hi int64) *Array {
	if a, ok := m.arrays[name]; ok {
		if a.Lo != lo || a.Hi != hi {
			panic(fmt.Sprintf("sim: array %s redeclared with different bounds", name))
		}
		return a
	}
	a := NewArray(name, lo, hi)
	m.arrays[name] = a
	return a
}

// Grid declares (or returns the existing) grid with the given bounds.
func (m *Mem) Grid(name string, lo1, hi1, lo2, hi2 int64) *Grid {
	if g, ok := m.grids[name]; ok {
		return g
	}
	g := NewGrid(name, lo1, hi1, lo2, hi2)
	m.grids[name] = g
	return g
}

// Lookup returns a previously declared array, or nil.
func (m *Mem) Lookup(name string) *Array { return m.arrays[name] }

// LookupGrid returns a previously declared grid, or nil.
func (m *Mem) LookupGrid(name string) *Grid { return m.grids[name] }

// SetScalar stores a named scalar.
func (m *Mem) SetScalar(name string, v int64) { m.scalars[name] = v }

// Scalar reads a named scalar (zero if unset).
func (m *Mem) Scalar(name string) int64 { return m.scalars[name] }

// AddScalar accumulates into a named scalar.
func (m *Mem) AddScalar(name string, v int64) { m.scalars[name] += v }

// Diff compares two memories and returns a human-readable description of
// the first differences found ("" when identical). Used by the
// serial-equivalence oracle.
func (m *Mem) Diff(other *Mem) string {
	if m.same(other) {
		return "" // a passing check sorts and formats nothing
	}
	var b strings.Builder
	const maxReport = 8
	reports := 0
	report := func(format string, args ...any) {
		if reports < maxReport {
			fmt.Fprintf(&b, format, args...)
		}
		reports++
	}
	for _, name := range sortedKeys(m.arrays) {
		a, oa := m.arrays[name], other.arrays[name]
		if oa == nil {
			report("array %s missing in other\n", name)
			continue
		}
		for i := a.Lo; i <= a.Hi; i++ {
			if a.Get(i) != oa.Get(i) {
				report("%s[%d]: %d vs %d\n", name, i, a.Get(i), oa.Get(i))
			}
		}
	}
	for _, name := range sortedKeys(m.grids) {
		g, og := m.grids[name], other.grids[name]
		if og == nil {
			report("grid %s missing in other\n", name)
			continue
		}
		for i := g.Lo1; i <= g.Hi1; i++ {
			for j := g.Lo2; j <= g.Hi2; j++ {
				if g.Get(i, j) != og.Get(i, j) {
					report("%s[%d,%d]: %d vs %d\n", name, i, j, g.Get(i, j), og.Get(i, j))
				}
			}
		}
	}
	for _, name := range sortedKeys(m.scalars) {
		if m.scalars[name] != other.scalars[name] {
			report("scalar %s: %d vs %d\n", name, m.scalars[name], other.scalars[name])
		}
	}
	if reports > maxReport {
		fmt.Fprintf(&b, "... and %d more differences\n", reports-maxReport)
	}
	return b.String()
}

// same reports, without allocating, that every array, grid and scalar of
// m has the same bounds and contents in other. It is stricter than Diff's
// walk (equal values under different bounds are not the same), so a false
// answer only sends Diff on to the walk that reports.
func (m *Mem) same(other *Mem) bool {
	for name, a := range m.arrays {
		oa := other.arrays[name]
		if oa == nil || a.Lo != oa.Lo || a.Hi != oa.Hi || !slices.Equal(a.vals, oa.vals) {
			return false
		}
	}
	for name, g := range m.grids {
		og := other.grids[name]
		if og == nil || g.Lo1 != og.Lo1 || g.Hi1 != og.Hi1 || g.Lo2 != og.Lo2 || g.Hi2 != og.Hi2 || !slices.Equal(g.vals, og.vals) {
			return false
		}
	}
	for name, v := range m.scalars {
		if other.scalars[name] != v {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
