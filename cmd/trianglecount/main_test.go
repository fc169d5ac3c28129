package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunEndToEnd: by default the trace is APBF; -format csv writes the
// paper's text layout beside it.
func TestRunEndToEnd(t *testing.T) {
	for _, c := range []struct {
		args  []string
		files []string
	}{
		{nil, []string{"PE0_send.bin", "overall.bin", "physical.bin", "actorprof_meta.txt"}},
		{[]string{"-format", "csv"}, []string{"PE0_send.bin", "PE0_send.csv", "overall.txt", "physical.bin", "physical.txt", "actorprof_meta.txt"}},
	} {
		dir := filepath.Join(t.TempDir(), "trace")
		err := run(append([]string{"-scale", "9", "-pes", "8", "-per-node", "4",
			"-dist", "range", "-out", dir}, c.args...))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range c.files {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("%v: missing trace file %s: %v", c.args, f, err)
			}
		}
	}
}

func TestRunRejectsBadDistribution(t *testing.T) {
	if err := run([]string{"-scale", "8", "-dist", "bogus", "-out", t.TempDir()}); err == nil {
		t.Fatal("expected error for unknown distribution")
	}
}
