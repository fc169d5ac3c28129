package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleUpRejectsBadFlags: a scale-up machine or isort input the flags
// cannot describe is an error before any output, never a PE panic.
func TestScaleUpRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scaleup-pes", "0"}, "NumPEs must be positive"},
		{[]string{"-scaleup-pes", "24"}, "multiple of PEsPerNode"},
		{[]string{"-scaleup-keys", "-5"}, "bad isort config {KeysPerPE:-5 "},
		{[]string{"-scaleup-pes", "16", "-scaleup-keys", "1152921504606846976"}, "within int64"},
	} {
		out := filepath.Join(t.TempDir(), "results")
		err := runMain(append(c.args, "-scaleup", "-out", out))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err %v, want one naming %s", c.args, err, c.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: wrote %s", c.args, out)
		}
	}
}
