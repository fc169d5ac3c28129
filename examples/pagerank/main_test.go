package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPageRankSmoke runs the distribution-comparison example at a tiny
// scale with few iterations.
func TestPageRankSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(7, 2, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"PageRank over",
		"1D Block",
		"1D Range",
		"rank mass",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestPageRankRejectsNoIterations: -iters below 1 is refused before the
// banner, not handed to the PEs.
func TestPageRankRejectsNoIterations(t *testing.T) {
	for _, iters := range []int{0, -1} {
		var out bytes.Buffer
		if err := run(4, iters, &out); err == nil || out.Len() != 0 {
			t.Errorf("-iters %d: err %v, output %q; want an error and no output", iters, err, out.String())
		}
	}
}
