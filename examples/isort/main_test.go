package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"actorprof/internal/trace"
)

// TestISortExampleSmoke runs the example at a reduced size and checks
// validation passes and trace files land.
func TestISortExampleSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-keys", "500", "-pes", "8", "-per-node", "4", "-width", "64", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "sorted 4000 keys (validated against the sequential reference)") {
		t.Errorf("output missing validation line:\n%s", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no trace files written to %s (err=%v)", dir, err)
	}
	if !trace.HasSchedule(dir) {
		t.Errorf("missing captured schedule in %s", dir)
	}
}
