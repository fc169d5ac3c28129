package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a machine or sort the flags cannot describe is
// an error before the banner or any run, never a PE panic.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-per-node", "0"}, "PEsPerNode must be positive"},
		{[]string{"-pes", "0"}, "NumPEs must be positive"},
		{[]string{"-pes", "12", "-per-node", "8"}, "multiple of PEsPerNode"},
		{[]string{"-keys", "-5"}, "bad isort config {KeysPerPE:-5 "},
		{[]string{"-buf", "-1"}, "buf -1"},
		{[]string{"-buf", "0"}, "buf 0"},
		{[]string{"-width", "0"}, "bad isort config {KeysPerPE:20000 BucketWidth:0 "},
		{[]string{"-pes", "4", "-per-node", "4", "-width", "4611686018427387904"}, "within int64"},
		{[]string{"-pes", "4", "-per-node", "4", "-keys", "4611686018427387904"}, "within int64"},
	} {
		dir := filepath.Join(t.TempDir(), "trace")
		var out bytes.Buffer
		err := run(append(c.args, "-out", dir), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err %v, want one naming %s", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", c.args, out.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: wrote %s", c.args, dir)
		}
	}
}
