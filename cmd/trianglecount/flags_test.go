package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a machine or scale the flags cannot describe is
// an error before the banner or any run, never a default in its place.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		env  string
		args []string
		want string
	}{
		{"", []string{"-per-node", "0"}, "PEsPerNode must be positive"},
		{"", []string{"-pes", "0"}, "NumPEs must be positive"},
		{"", []string{"-pes", "12", "-per-node", "8"}, "multiple of PEsPerNode"},
		{"", []string{"-scale", "0"}, "scale 0"},
		{"", []string{"-buf", "-1"}, "buf -1"},
		{"", []string{"-buf", "0"}, "buf 0"},
		{"", []string{"-ef", "0"}, "ef 0"},
		{"", []string{"-dist", "foo"}, `unknown distribution "foo"`},
		{"16x", nil, `ACTORPROF_SCALE="16x"`},
		{"26", []string{"-scale", "8"}, `ACTORPROF_SCALE="26"`},
	} {
		t.Setenv("ACTORPROF_SCALE", c.env)
		out := filepath.Join(t.TempDir(), "trace")
		err := run(append(c.args, "-out", out))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ACTORPROF_SCALE=%q %v: err %v, want one naming %s", c.env, c.args, err, c.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("ACTORPROF_SCALE=%q %v: wrote %s", c.env, c.args, out)
		}
	}
}
