package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTriangleSmoke runs the Section IV case study at a tiny scale,
// writing trace files into a temp dir.
func TestTriangleSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(7, dir, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"validated on both runs",
		"Logical trace heatmap - 1D Cyclic",
		"Logical trace heatmap - 1D Range",
		"Quartile violin - 1D Cyclic",
		"Overall breakdown - 1D Range",
		"case-study observations:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, sub := range []string{"cyclic", "range"} {
		ents, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatalf("trace dir %s: %v", sub, err)
		}
		if len(ents) == 0 {
			t.Errorf("trace dir %s is empty", sub)
		}
	}
}

// TestTriangleRejectsScaleBelowOne: -scale 0 is refused, not read as the
// experiment's default scale.
func TestTriangleRejectsScaleBelowOne(t *testing.T) {
	for _, scale := range []int{0, -3} {
		dir := t.TempDir()
		var out bytes.Buffer
		if err := run(scale, dir, &out); err == nil || out.Len() != 0 {
			t.Errorf("-scale %d: err %v, output %q; want an error and no output", scale, err, out.String())
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("-scale %d wrote %d trace dirs", scale, len(ents))
		}
	}
}
