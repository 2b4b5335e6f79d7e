package exper

import (
	"fmt"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every experiment end to end; each run
// internally checks serial equivalence, so a pass here means every claim
// measurement is backed by a correct execution.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s table %s has no rows", e.ID, tb.ID)
				}
				if out := tb.Render(); !strings.Contains(out, tb.ID) {
					t.Errorf("%s render missing header", tb.ID)
				}
			}
		})
	}
}

// TestE1CoversExpectedArcs pins the regenerated Fig 2.1 content.
func TestE1CoversExpectedArcs(t *testing.T) {
	tables, err := E1DependenceGraph()
	if err != nil {
		t.Fatal(err)
	}
	out := strings.Join(strings.Fields(tables[0].Render()), " ")
	for _, want := range []string{
		"S1 S2 flow 2",
		"S1 S4 output 3 A[I+3] A[I] covered (eliminated)",
		"S4 S5 flow 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
	out2 := strings.Join(strings.Fields(tables[1].Render()), " ")
	if !strings.Contains(out2, "wait_PC(2,1)") || !strings.Contains(out2, "wait_PC(1,4)") {
		t.Errorf("E1.2 missing wait parameters:\n%s", out2)
	}
}

// TestE2TicketsMatchFig31a pins the regenerated ticket column 0,1,1,3,4.
func TestE2TicketsMatchFig31a(t *testing.T) {
	tables, err := E2DataOriented()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, 5)
	for _, row := range tables[0].Rows {
		got = append(got, row[3])
	}
	want := []string{"0", "1", "1", "3", "4"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("tickets = %v, want %v", got, want)
	}
}

// TestE3ShapeHolds: the statement-oriented penalty must exceed the
// process-oriented one (the central serialization claim).
func TestE3ShapeHolds(t *testing.T) {
	tables, err := E3StatementSerialization()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tables[0].Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("E3 claim violated: %s", n)
		}
	}
}

// TestTableRenderAlignment smoke-tests the renderer.
func TestTableRenderAlignment(t *testing.T) {
	tb := &Table{ID: "T", Title: "x", Columns: []string{"a", "long-header"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("wide-cell-content", "y")
	tb.Note("footnote %d", 7)
	out := tb.Render()
	if !strings.Contains(out, "2.50") || !strings.Contains(out, "note: footnote 7") {
		t.Errorf("render wrong:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{ID: "T", Title: "x|y", Columns: []string{"a", "b"}}
	tb.AddRow("v|w", 3)
	tb.Note("n1")
	out := tb.Markdown()
	for _, want := range []string{"**[T] x|y**", "| a | b |", "|---|---|", "| v\\|w | 3 |", "*n1*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

// parseCell finds the numeric cell for a row matched by substring.
func cellValue(t *testing.T, tb *Table, rowMatch string, col int) float64 {
	t.Helper()
	for _, row := range tb.Rows {
		joined := strings.Join(row, " ")
		if strings.Contains(joined, rowMatch) {
			return num(t, row[col])
		}
	}
	t.Fatalf("no row matching %q in %s", rowMatch, tb.ID)
	return 0
}

// TestE6ShapeHolds guards Example 1's headline: the PC pipeline beats the
// counter-barrier wavefront, and SC starvation collapses the pipeline.
func TestE6ShapeHolds(t *testing.T) {
	tables, err := E6Relaxation()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	wave := cellValue(t, tb, "wavefront + counter", 1)
	pipe := cellValue(t, tb, "async pipeline, PCs", 1)
	starved := cellValue(t, tb, "K=2 of", 1)
	if pipe >= wave {
		t.Errorf("pipeline (%v) not faster than counter-barrier wavefront (%v)", pipe, wave)
	}
	if starved <= 2*pipe {
		t.Errorf("SC starvation not visible: %v vs %v", starved, pipe)
	}
}

// TestE9ShapeHolds guards Example 4: the counter barrier's hot spot grows
// with P while the PC butterfly generates no module traffic.
func TestE9ShapeHolds(t *testing.T) {
	tables, err := E9Barriers()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var counterQ []float64
	for _, row := range tb.Rows {
		if strings.Contains(row[1], "counter") {
			var v float64
			fmt.Sscanf(row[5], "%f", &v)
			counterQ = append(counterQ, v)
		}
		if strings.Contains(row[1], "PC butterfly") && row[4] != "0" {
			t.Errorf("PC butterfly row has module accesses: %v", row)
		}
	}
	for i := 1; i < len(counterQ); i++ {
		if counterQ[i] <= counterQ[i-1] {
			t.Errorf("counter max queue not growing with P: %v", counterQ)
		}
	}
}

// TestE10ShapeHolds guards Example 5: pairwise/neighbor sync beats the
// global barrier at every P, for both FFT and Jacobi.
func TestE10ShapeHolds(t *testing.T) {
	tables, err := E10FFT()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		for i := 0; i+1 < len(tb.Rows); i += 2 {
			var local, bar float64
			fmt.Sscanf(tb.Rows[i][2], "%f", &local)
			fmt.Sscanf(tb.Rows[i+1][2], "%f", &bar)
			if local >= bar {
				t.Errorf("%s P=%s: local sync (%v) not faster than barrier (%v)",
					tb.ID, tb.Rows[i][0], local, bar)
			}
		}
	}
}

// TestE12CrossoverShape guards the many-sources crossover: with k=16
// sources, the 4-counter statement scheme is at least 2x slower than the
// process scheme with 8 PCs.
func TestE12CrossoverShape(t *testing.T) {
	tables, err := E12Ablation()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[3]
	var proc16, folded16 float64
	for _, row := range tb.Rows {
		if row[0] != "16" {
			continue
		}
		var v float64
		fmt.Sscanf(row[3], "%f", &v)
		if strings.HasPrefix(row[1], "process") {
			proc16 = v
		}
		if row[1] == "statement(K=4)" {
			folded16 = v
		}
	}
	if proc16 == 0 || folded16 < 2*proc16 {
		t.Errorf("crossover not visible: process %v vs statement(K=4) %v", proc16, folded16)
	}
}

// TestE13ShapeHolds guards the dispatch-policy claims: reversed dispatch is
// reported as a detected deadlock, in-order completes.
func TestE13ShapeHolds(t *testing.T) {
	tables, err := E13Scheduling()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	sawDeadlock, sawCompleted := false, false
	for _, row := range tb.Rows {
		if row[0] == "reversed" && strings.Contains(row[5], "DEADLOCK") {
			sawDeadlock = true
		}
		if row[0] == "in-order" && strings.Contains(row[5], "completed") {
			sawCompleted = true
		}
	}
	if !sawDeadlock || !sawCompleted {
		t.Errorf("dispatch outcomes wrong:\n%s", tb.Render())
	}
}

// TestE14ShapeHolds: growing write-visibility latency must grow cycles
// monotonically for every scheme in the sweep.
func TestE14ShapeHolds(t *testing.T) {
	tables, err := E14DataLatency()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	prev := map[string]float64{}
	for _, row := range tb.Rows {
		var v float64
		fmt.Sscanf(row[2], "%f", &v)
		if p, ok := prev[row[1]]; ok && v <= p {
			t.Errorf("%s: cycles %v not above previous latency tier %v", row[1], v, p)
		}
		prev[row[1]] = v
	}
}

// num parses a numeric table cell.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(cell, "%f", &v); err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

// TestE5ShapeHolds guards Fig 4.3's claim: the improved primitives never
// broadcast more than the basic ones, and write coverage saves
// transactions only once the bus is slow enough for writes to queue.
func TestE5ShapeHolds(t *testing.T) {
	tables, err := E5ImprovedPrimitives()
	if err != nil {
		t.Fatal(err)
	}
	tx := map[string]float64{} // "primitives latency coverage" -> bus tx
	for _, row := range tables[0].Rows {
		prim, lat, cov := strings.Fields(row[0])[0], row[1], row[2]
		tx[prim+" "+lat+" "+cov] = num(t, row[3])
		saved := num(t, row[4])
		if lat == "1" && saved != 0 {
			t.Errorf("%s latency 1 coverage %s: %v tx saved, want 0", prim, cov, saved)
		}
		if lat == "8" && cov == "on" && saved <= 0 {
			t.Errorf("%s latency 8 coverage on: no tx saved", prim)
		}
	}
	for _, lc := range []string{"1 off", "1 on", "8 off", "8 on"} {
		basic, okB := tx["basic "+lc]
		improved, okI := tx["improved "+lc]
		if !okB || !okI {
			t.Fatalf("E5.1 lacks the basic or improved row at latency/coverage %s", lc)
		}
		if improved > basic {
			t.Errorf("latency/coverage %s: improved %v bus tx above basic %v", lc, improved, basic)
		}
	}
}

// TestE7ShapeHolds guards Example 2: outer pipelining at G=1 is the
// fastest schedule of the nest, the reference-based keys the costliest in
// sync variables, and both arrays show the boundary problem (elements
// accessed once and twice).
func TestE7ShapeHolds(t *testing.T) {
	tables, err := E7NestedLoop()
	if err != nil {
		t.Fatal(err)
	}
	var fastest, mostVars string
	var minCycles, maxVars float64
	for _, row := range tables[0].Rows {
		if vars := num(t, row[1]); mostVars == "" || vars > maxVars {
			mostVars, maxVars = row[0], vars
		}
		if cycles := num(t, row[3]); fastest == "" || cycles < minCycles {
			fastest, minCycles = row[0], cycles
		}
	}
	if fastest != "pipeline(X=8,G=1)" {
		t.Errorf("fewest cycles: %s, want pipeline(X=8,G=1)", fastest)
	}
	if mostVars != "data(ref-based)" {
		t.Errorf("most sync vars: %s, want data(ref-based)", mostVars)
	}
	counts := map[string]bool{} // "array accesses" present
	for _, row := range tables[1].Rows {
		counts[row[0]+" "+row[1]] = true
	}
	for _, want := range []string{"A 1", "A 2", "B 1", "B 2"} {
		if !counts[want] {
			t.Errorf("E7.2 has no %q row: the boundary problem is not visible", want)
		}
	}
}

// TestE11ShapeHolds guards section 6: a PC is updated at most once per
// source statement, small X lets the improved mark_PC skip updates, and
// write coverage saves more the slower the bus.
func TestE11ShapeHolds(t *testing.T) {
	tables, err := E11Hardware()
	if err != nil {
		t.Fatal(err)
	}
	perSource := map[string]float64{} // "primitives X" -> tx per source stmt
	for _, row := range tables[0].Rows {
		v := num(t, row[5])
		if v > 1 {
			t.Errorf("%s X=%s: %v bus tx per source statement, above the section 6 bound of 1", row[0], row[1], v)
		}
		perSource[row[0]+" "+row[1]] = v
	}
	if perSource["improved 2"] >= perSource["basic 2"] {
		t.Errorf("improved X=2 (%v tx per source) not below basic X=2 (%v)", perSource["improved 2"], perSource["basic 2"])
	}
	prev := -1.0
	for _, row := range tables[1].Rows {
		saved := num(t, row[3])
		if saved < prev {
			t.Errorf("bus latency %s: %v saved, below the %v of a faster bus", row[0], saved, prev)
		}
		prev = saved
	}
}
