package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestOutputMatchesExperimentsMD pins the full plain-text output of
// dsbench, every experiment's tables, to the fenced block EXPERIMENTS.md
// quotes as it, so a change to any simulated result or derived table (the
// data-oriented plan's E2 and E7 included) shows up as a diff.
func TestOutputMatchesExperimentsMD(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const intro = "Full deterministic output of `go run ./cmd/dsbench` follows.\n"
	_, rest, found := strings.Cut(string(doc), intro)
	_, rest, fenced := strings.Cut(rest, "```\n")
	want, _, closed := strings.Cut(rest, "```\n")
	if !found || !fenced || !closed {
		t.Fatal("EXPERIMENTS.md has no fenced dsbench output block")
	}
	var out, errs bytes.Buffer
	if !report(&out, &errs, "", false) {
		t.Fatalf("experiments failed:\n%s", errs.String())
	}
	if got := out.String(); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("dsbench output differs from EXPERIMENTS.md at block line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("dsbench output has %d lines, EXPERIMENTS.md's block %d", len(gl), len(wl))
	}
}
