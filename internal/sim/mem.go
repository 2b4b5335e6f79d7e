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

// Mem is the model data memory: named arrays and grids.
// It is the workload state the serial-equivalence oracle compares.
type Mem struct {
	arrays map[string]*Array
	grids  map[string]*Grid
}

// NewMem returns an empty memory.
func NewMem() *Mem {
	return &Mem{
		arrays: make(map[string]*Array),
		grids:  make(map[string]*Grid),
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

// Diff compares two memories and returns a human-readable description of
// the first differences found ("" when identical), m's contents being the
// expected ones. Used by the serial-equivalence oracle.
func (m *Mem) Diff(other *Mem) string { return m.Snapshot().Diff(other) }

// Image is a memory's contents as the serial oracle keeps them: every
// array and grid with its bounds and values, arrays first, each kind in
// name order. It holds no map and no reference into the
// Mem it was taken from, and its names are copied into one string, so a
// name sliced from a program's source does not keep that source alive. A
// block's values take 32 bits each when they all fit. An Image is never
// written after Snapshot returns it, so any number of goroutines may Diff
// against it at once.
type Image struct {
	blocks []block
}

// block is one array or grid of an Image: its bounds (lo2 and hi2 unused
// for an array) and its values in row-major order, in w32 when every one
// fits in 32 bits and in w64 otherwise.
type block struct {
	name               string
	grid               bool
	lo1, hi1, lo2, hi2 int64
	w32                []int32
	w64                []int64
}

// at returns the block's k-th value in row-major order.
func (b *block) at(k int64) int64 {
	if b.w64 != nil {
		return b.w64[k]
	}
	return int64(b.w32[k])
}

// holds reports, without allocating, that vals are the block's values.
func (b *block) holds(vals []int64) bool {
	if b.w64 != nil {
		return slices.Equal(b.w64, vals)
	}
	if len(vals) != len(b.w32) {
		return false
	}
	for k, v := range vals {
		if int64(b.w32[k]) != v {
			return false
		}
	}
	return true
}

// fits32 reports that every value fits in 32 bits.
func fits32(vals []int64) bool {
	for _, v := range vals {
		if v != int64(int32(v)) {
			return false
		}
	}
	return true
}

// Snapshot returns a copy of m's contents as an Image.
func (m *Mem) Snapshot() Image {
	img := Image{blocks: make([]block, 0, len(m.arrays)+len(m.grids))}
	// Each block's w64 points at m's values until they are copied below.
	for _, a := range m.arrays {
		img.blocks = append(img.blocks, block{name: a.Name, lo1: a.Lo, hi1: a.Hi, w64: a.vals})
	}
	for _, g := range m.grids {
		img.blocks = append(img.blocks, block{name: g.Name, grid: true,
			lo1: g.Lo1, hi1: g.Hi1, lo2: g.Lo2, hi2: g.Hi2, w64: g.vals})
	}
	slices.SortFunc(img.blocks, func(x, y block) int {
		if x.grid != y.grid {
			if y.grid {
				return -1
			}
			return 1
		}
		return strings.Compare(x.name, y.name)
	})

	// One slab per word width and one string of names.
	n32, n64, size := 0, 0, 0
	for i := range img.blocks {
		b := &img.blocks[i]
		if fits32(b.w64) {
			n32 += len(b.w64)
		} else {
			n64 += len(b.w64)
		}
		size += len(b.name)
	}
	w32, w64 := make([]int32, 0, n32), make([]int64, 0, n64)
	var names strings.Builder
	names.Grow(size)
	intern := func(name string) string {
		at := names.Len()
		names.WriteString(name)
		// The builder never grows past size, so what it has written
		// stays where it is.
		return names.String()[at:]
	}
	for i := range img.blocks {
		b := &img.blocks[i]
		b.name = intern(b.name)
		if vals := b.w64; fits32(vals) {
			at := len(w32)
			for _, v := range vals {
				w32 = append(w32, int32(v))
			}
			b.w32, b.w64 = w32[at:len(w32):len(w32)], nil
		} else {
			w64 = append(w64, vals...)
			b.w64 = w64[len(w64)-len(vals) : len(w64) : len(w64)]
		}
	}
	return img
}

// Diff compares the image with a memory and returns a human-readable
// description of the first differences found ("" when identical). Only
// what the image holds is compared: the memory may declare more.
func (img Image) Diff(other *Mem) string {
	if img.same(other) {
		return "" // a passing check formats nothing
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
	for i := range img.blocks {
		blk := &img.blocks[i]
		if !blk.grid {
			oa := other.arrays[blk.name]
			if oa == nil {
				report("array %s missing in other\n", blk.name)
				continue
			}
			for i := blk.lo1; i <= blk.hi1; i++ {
				if want, got := blk.at(i-blk.lo1), oa.Get(i); want != got {
					report("%s[%d]: %d vs %d\n", blk.name, i, want, got)
				}
			}
			continue
		}
		og := other.grids[blk.name]
		if og == nil {
			report("grid %s missing in other\n", blk.name)
			continue
		}
		cols := blk.hi2 - blk.lo2 + 1
		for i := blk.lo1; i <= blk.hi1; i++ {
			for j := blk.lo2; j <= blk.hi2; j++ {
				if want, got := blk.at((i-blk.lo1)*cols+j-blk.lo2), og.Get(i, j); want != got {
					report("%s[%d,%d]: %d vs %d\n", blk.name, i, j, want, got)
				}
			}
		}
	}
	if reports > maxReport {
		fmt.Fprintf(&b, "... and %d more differences\n", reports-maxReport)
	}
	return b.String()
}

// same reports, without allocating, that every array and grid of
// the image has the same bounds and contents in other. It is stricter than
// Diff's walk (equal values under different bounds are not the same), so a
// false answer only sends Diff on to the walk that reports.
func (img Image) same(other *Mem) bool {
	for i := range img.blocks {
		b := &img.blocks[i]
		if !b.grid {
			oa := other.arrays[b.name]
			if oa == nil || b.lo1 != oa.Lo || b.hi1 != oa.Hi || !b.holds(oa.vals) {
				return false
			}
			continue
		}
		og := other.grids[b.name]
		if og == nil || b.lo1 != og.Lo1 || b.hi1 != og.Hi1 || b.lo2 != og.Lo2 || b.hi2 != og.Hi2 || !b.holds(og.vals) {
			return false
		}
	}
	return true
}
