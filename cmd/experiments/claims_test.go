package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wallClock matches a measured cell of the Sec IV-E row: host timings,
// which differ from run to run and are masked before any comparison.
var wallClock = regexp.MustCompile(`host wall-clock: [^|]*`)

func masked(table []byte) []byte { return wallClock.ReplaceAll(table, []byte("- ")) }

// TestScale9OutputsPinned: every file but the traces that -scale 9
// writes - figures, API profile, and summary.md with its wall-clock
// cells masked - hashes as testdata/scale9.sha256 lists
// ("<sha256>  <path>", sorted by path). A change to what the driver
// measures or renders shows here file by file; the failure prints the
// lines to replace the golden with when the change is meant.
func TestScale9OutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is a multi-second run")
	}
	out := t.TempDir()
	if err := runMain([]string{"-scale", "9", "-out", out}); err != nil {
		t.Fatal(err)
	}
	var got []string
	err := filepath.WalkDir(out, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "traces" {
				return filepath.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(out, path)
		if rel == "summary.md" {
			data = masked(data)
		}
		got = append(got, fmt.Sprintf("%x  %s", sha256.Sum256(data), filepath.ToSlash(rel)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "scale9.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("-scale 9 outputs differ from testdata/scale9.sha256; this run's digests:\n%s", g)
	}
}

// TestSweepColumnsAreSummaries: -sweep 7,9 writes the summary's claims
// with one measured column per scale, and each column is, row for row,
// the Measured column of a -scale run's summary.md at that scale.
func TestSweepColumnsAreSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is a multi-second run")
	}
	dir := t.TempDir()
	if err := runMain([]string{"-sweep", "7,9", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	head, sweep := readTable(t, filepath.Join(dir, "scale_sweep.md"))
	if want := []string{"Figure", "Paper observation", "scale 7", "scale 9"}; strings.Join(head, "|") != strings.Join(want, "|") {
		t.Fatalf("sweep header %q, want %q", head, want)
	}
	for col, scale := range []string{"7", "9"} {
		out := filepath.Join(dir, "scale"+scale)
		if err := runMain([]string{"-scale", scale, "-out", out}); err != nil {
			t.Fatal(err)
		}
		_, summary := readTable(t, filepath.Join(out, "summary.md"))
		if len(summary) != len(sweep) {
			t.Fatalf("scale %s: summary has %d rows, sweep %d", scale, len(summary), len(sweep))
		}
		for i, row := range summary {
			if row[0] != sweep[i][0] || row[1] != sweep[i][1] || row[2] != sweep[i][2+col] {
				t.Errorf("scale %s, row %d: summary %q, sweep %q", scale, i, row, sweep[i])
			}
		}
	}
}

// readTable returns a claims table's header cells and body rows, with
// the wall-clock cells masked.
func readTable(t *testing.T, path string) (head []string, rows [][]string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(masked(data))))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if head == nil {
			head = cells
		} else {
			rows = append(rows, cells)
		}
	}
	return head, rows
}

// TestRejectsBadScales: a scale the driver cannot run is an error before
// anything is run or written, never a run at another scale.
func TestRejectsBadScales(t *testing.T) {
	for _, c := range []struct {
		env  string
		args []string
		want string
	}{
		{"", []string{"-scale", "0"}, "scale 0"},
		{"", []string{"-scale", "-2"}, "scale -2"},
		{"", []string{"-sweep", "0"}, "scale 0"},
		{"", []string{"-sweep", "7,0"}, "scale 0"},
		{"", []string{"-sweep", "7,x"}, `"x"`},
		{"16x", nil, `ACTORPROF_SCALE="16x"`},
		{"26", []string{"-sweep", "7"}, `ACTORPROF_SCALE="26"`},
	} {
		t.Setenv("ACTORPROF_SCALE", c.env)
		out := filepath.Join(t.TempDir(), "out")
		err := runMain(append(c.args, "-out", out))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ACTORPROF_SCALE=%q %v: err %v, want one naming %s", c.env, c.args, err, c.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("ACTORPROF_SCALE=%q %v: wrote %s", c.env, c.args, out)
		}
	}
}
