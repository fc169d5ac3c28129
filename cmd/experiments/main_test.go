package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExperimentsSuiteTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is a multi-second run")
	}
	out := t.TempDir()
	if err := runMain([]string{"-scale", "9", "-out", out}); err != nil {
		t.Fatal(err)
	}
	// Summary with one row per figure.
	sum, err := os.ReadFile(filepath.Join(out, "summary.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7",
		"Fig 8/9", "Fig 10", "Fig 11", "Fig 12", "Fig 13", "Sec IV-E"} {
		if !strings.Contains(string(sum), fig) {
			t.Errorf("summary missing %s", fig)
		}
	}
	// Every figure directory exists with SVG + txt renderings.
	for _, spec := range []struct{ dir, file string }{
		{"fig03_logical_heatmap_1node", "cyclic.svg"},
		{"fig03_logical_heatmap_1node", "range.txt"},
		{"fig05_logical_violin", "cyclic_1node.svg"},
		{"fig07_physical_violin", "range_2node.svg"},
		{"fig08_physical_heatmap_1node", "cyclic_local_send.svg"},
		{"fig09_physical_heatmap_2node", "cyclic_nonblock_send.svg"},
		{"fig10_papi_bar_1node", "cyclic.svg"},
		{"fig12_overall_1node", "range_relative.svg"},
		{"fig13_overall_2node", "cyclic_absolute.txt"},
	} {
		if _, err := os.Stat(filepath.Join(out, spec.dir, spec.file)); err != nil {
			t.Errorf("missing %s/%s: %v", spec.dir, spec.file, err)
		}
	}
	// Raw traces for the full grid.
	for _, dir := range []string{"1n_cyclic", "1n_range", "2n_cyclic", "2n_range"} {
		if _, err := os.Stat(filepath.Join(out, "traces", dir, "overall.txt")); err != nil {
			t.Errorf("missing traces/%s: %v", dir, err)
		}
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a non-empty
// gzipped pprof file behind.
func TestProfilesWritten(t *testing.T) {
	out := t.TempDir()
	cpu, mem := filepath.Join(out, "cpu.pprof"), filepath.Join(out, "mem.pprof")
	if err := runMain([]string{"-sweep", "7", "-out", out, "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) || len(data) < 32 {
			t.Errorf("%s: %d bytes, want a non-empty gzip stream", filepath.Base(path), len(data))
		}
	}
}
