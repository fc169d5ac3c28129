package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/sim"
)

// writeTrace produces a real trace directory for the CLI to consume.
func writeTrace(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	set, err := core.Run(core.Options{
		Machine: sim.Machine{NumPEs: 8, PEsPerNode: 4},
		Trace:   core.FullTrace(),
	}, func(rt *actor.Runtime) error {
		_, err := apps.Histogram(rt, apps.HistogramConfig{
			UpdatesPerPE: 200, TableSizePerPE: 32, Seed: 9,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// capture redirects stdout around fn.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errCh := make(chan error, 1)
	outCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 1<<20)
		var out []byte
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		outCh <- string(out)
	}()
	errCh <- fn()
	w.Close()
	os.Stdout = old
	if err := <-errCh; err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return <-outCh
}

func TestCLIAllPlots(t *testing.T) {
	dir := writeTrace(t)
	out := capture(t, func() error { return run([]string{dir}) })
	for _, want := range []string{
		"Logical Trace", "Physical Trace", "quartiles",
		"PAPI_TOT_INS", "Overall breakdown", "T_MAIN", "node",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("default output missing %q", want)
		}
	}
}

func TestCLISelectedPlotOnly(t *testing.T) {
	dir := writeTrace(t)
	out := capture(t, func() error { return run([]string{"-s", dir}) })
	if !strings.Contains(out, "Overall breakdown") {
		t.Error("missing overall plot")
	}
	if strings.Contains(out, "Logical Trace") {
		t.Error("-s must not render the logical heatmap")
	}
}

func TestCLISVGOutput(t *testing.T) {
	dir := writeTrace(t)
	svgDir := t.TempDir()
	capture(t, func() error { return run([]string{"-l", "-s", "-lp", "-p", "-violin", "-svg", svgDir, dir}) })
	for _, f := range []string{
		"logical_heatmap.svg", "physical_heatmap.svg", "logical_violin.svg",
		"physical_violin.svg", "papi_bar.svg", "papi_grouped.svg",
		"overall_absolute.svg", "overall_relative.svg", "node_heatmap.svg",
	} {
		path := filepath.Join(svgDir, f)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("missing SVG %s: %v", f, err)
			continue
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Errorf("%s is not an SVG", f)
		}
	}
}

func TestCLIExport(t *testing.T) {
	dir := writeTrace(t)
	jsonPath := filepath.Join(t.TempDir(), "events.json")
	capture(t, func() error { return run([]string{"export", "-out", jsonPath, dir}) })
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, `{"traceEvents":[`) {
		t.Fatal("export is not a Trace Event JSON object")
	}
	for _, want := range []string{`"name":"local_send"`, `"cat":"conveyor"`, `"ph":"i"`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace events missing %s", want)
		}
	}
}

func TestCLIDegenerateTraceDirs(t *testing.T) {
	// Empty, partial, and truncated trace directories must produce a
	// friendly error (or a clean zero-data render), never a panic.
	meta := "num_PEs 4\nPEs_per_node 2\n"
	cases := []struct {
		name    string
		files   map[string]string
		args    []string
		wantErr string // "" = must succeed
	}{
		{
			name:    "empty dir",
			files:   map[string]string{},
			args:    nil,
			wantErr: "reading trace directory",
		},
		{
			name:    "meta only, default plots",
			files:   map[string]string{"actorprof_meta.txt": meta},
			args:    nil,
			wantErr: "no renderable data",
		},
		{
			name:    "meta only, violin requested",
			files:   map[string]string{"actorprof_meta.txt": meta},
			args:    []string{"-violin"},
			wantErr: "nothing to plot",
		},
		{
			name:    "no overall, -s requested",
			files:   map[string]string{"actorprof_meta.txt": meta, "PE0_send.csv": ""},
			args:    []string{"-s"},
			wantErr: "no overall breakdown",
		},
		{
			name:    "no PAPI, -lp requested",
			files:   map[string]string{"actorprof_meta.txt": meta, "PE0_send.csv": ""},
			args:    []string{"-lp"},
			wantErr: "no PAPI events",
		},
		{
			name:    "no physical, export requested",
			files:   map[string]string{"actorprof_meta.txt": meta, "PE0_send.csv": ""},
			args:    []string{"export"},
			wantErr: "nothing to export",
		},
		{
			name:    "truncated logical line",
			files:   map[string]string{"actorprof_meta.txt": meta, "PE0_send.csv": "0,0,1"},
			args:    []string{"-l"},
			wantErr: "reading trace directory",
		},
		{
			name:    "truncated overall line",
			files:   map[string]string{"actorprof_meta.txt": meta, "overall.txt": "Absolute [PE0] TCOMM_PROFILING (1, 2"},
			args:    []string{"-s"},
			wantErr: "reading trace directory",
		},
		{
			// No sends at all: all-zero violins must render, not crash
			// (the historical stats.Summarize empty-input panic path).
			name:    "empty csv renders zero plots",
			files:   map[string]string{"actorprof_meta.txt": meta, "PE0_send.csv": "", "physical.txt": ""},
			args:    []string{"-violin"},
			wantErr: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, content := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			out := capture(t, func() error {
				err = run(append(append([]string(nil), tc.args...), dir))
				return nil
			})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if !strings.Contains(out, "quartiles") {
					t.Errorf("zero-data violin did not render:\n%s", out)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestCLIBadArguments(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("expected error for missing trace dir")
	}
	if err := run([]string{"/nonexistent/trace/dir"}); err == nil {
		t.Error("expected error for bad trace dir")
	}
	dir := writeTrace(t)
	if err := run([]string{"-lp", "-event", "PAPI_BOGUS", dir}); err == nil {
		t.Error("expected error for unknown PAPI event")
	}
}
