package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

// capturedTrace writes a trace directory with the schedule its run recorded.
func capturedTrace(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	set, sched, err := core.RunCaptured(core.Options{
		Machine: sim.Machine{NumPEs: 4, PEsPerNode: 2},
		Trace:   trace.Config{Overall: true},
	}, func(rt *actor.Runtime) error {
		_, err := apps.Histogram(rt, apps.HistogramConfig{UpdatesPerPE: 100, TableSizePerPE: 32, Seed: 7})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if err := whatif.WriteScheduleFile(dir, sched); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCLIWhatIfRefusesWhatItCannotAnswer: a question the engines would
// answer other than as asked - a factor not finite and above zero, a cost
// scaled past an int64, a speedup of an actor that never ran, a count of
// lines to print below one - is an error naming its flag, before anything
// prints.
func TestCLIWhatIfRefusesWhatItCannotAnswer(t *testing.T) {
	dir := capturedTrace(t)
	if out := capture(t, func() error { return run([]string{"whatif", "-actor", "0", "-speedup", "2", dir}) }); !strings.Contains(out, "handler 2x faster") {
		t.Fatalf("a speedup of actor 0 was not answered:\n%s", out)
	}
	for _, args := range [][]string{ // the flag to name first
		{"-scale-network", "-2"},
		{"-scale-network", "0"},
		{"-speedup", "-3", "-actor", "0"},
		{"-scale-network", "NaN"},
		{"-scale-instr", "1e300"},
		{"-actor", "999999", "-speedup", "2"},
		{"-top", "0"},
		{"-edges", "-1"},
	} {
		flag := args[0]
		out, err := captureErr(t, func() error { return run(append(append([]string{"whatif"}, args...), dir)) })
		if err == nil || !strings.HasPrefix(err.Error(), flag+" ") {
			t.Errorf("whatif %v: err = %v, want an error naming %s", args, err, flag)
		}
		if out != "" {
			t.Errorf("whatif %v printed before refusing:\n%s", args, out)
		}
	}
}

// TestCLIExportSchedule: `actorprof export -schedule` writes, from a
// schedule's shards, the bytes schedule.json had when it was the
// schedule's file: testdata/schedule.golden.json, written then by
// whatif.WriteScheduleFile for a recorded run. testdata/schedule holds
// the shards that file was read into, written once by WriteScheduleFile.
func TestCLIExportSchedule(t *testing.T) {
	golden, err := os.ReadFile("testdata/schedule.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ents, err := os.ReadDir("testdata/schedule")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join("testdata/schedule", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, trace.ScheduleJSONFile)
	capture(t, func() error { return run([]string{"export", "-schedule", dir}) })
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, golden) {
		t.Errorf("export -schedule wrote %d bytes unlike the golden's %d (%v)", len(got), len(golden), err)
	}
	if out := capture(t, func() error { return run([]string{"export", "-schedule", "-out", "-", dir}) }); out != string(golden) {
		t.Errorf("export -schedule -out - printed %d bytes unlike the golden's %d", len(out), len(golden))
	}
}

// TestCLIScheduleOfNoDirectory: whatif and export -schedule report a
// path that does not exist, or is no directory, as such - not as a run
// without a schedule, and not by a schedule file's name - and a
// directory without a schedule as one, also when it holds the schedule's
// export, which is not read.
func TestCLIScheduleOfNoDirectory(t *testing.T) {
	empty, exported := t.TempDir(), t.TempDir()
	file := filepath.Join(empty, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/schedule.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(exported, trace.ScheduleJSONFile), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ dir, want string }{
		{filepath.Join(empty, "no", "such", "dir"), "no such file or directory"},
		{file, "is not a directory"},
		{empty, "has no recorded schedule"},
		{exported, "has no recorded schedule"},
	} {
		for _, cmd := range [][]string{{"whatif"}, {"export", "-schedule"}} {
			_, err := captureErr(t, func() error { return run(append(cmd, c.dir)) })
			if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "schedule.json") || strings.Contains(err.Error(), "schedule_meta.json") {
				t.Errorf("%v %s: err = %v, want it to say %q and name no schedule file", cmd, c.dir, err, c.want)
			}
		}
	}
}
