package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/papi"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// writeTrace produces a real trace directory for the CLI to consume.
func writeTrace(t *testing.T, format trace.Format) string {
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
	set.Config.Format = format
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
	dir := writeTrace(t, trace.FormatBinary)
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
	dir := writeTrace(t, trace.FormatBinary)
	out := capture(t, func() error { return run([]string{"-s", dir}) })
	if !strings.Contains(out, "Overall breakdown") {
		t.Error("missing overall plot")
	}
	if strings.Contains(out, "Logical Trace") {
		t.Error("-s must not render the logical heatmap")
	}
}

func TestCLISVGOutput(t *testing.T) {
	dir := writeTrace(t, trace.FormatBinary)
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
	dir := writeTrace(t, trace.FormatBinary)
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
	// written writes a 4-PE Set of cfg's kinds, with the one overall
	// record it asks for, and cuts the last byte off torn (a shard
	// written, "" for none).
	written := func(cfg trace.Config, torn string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			s := trace.NewSet(cfg, 4, 2)
			s.Logical[0] = []trace.LogicalSend{{DstPE: 1, MsgSize: 8}}
			s.Overall = []trace.OverallRecord{{PE: 0, TMain: 1, TComm: 2, TProc: 3, TTotal: 6}}
			if err := s.WriteFiles(dir); err != nil {
				t.Fatal(err)
			}
			if torn == "" {
				return
			}
			path := filepath.Join(dir, torn)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
		}
	}
	metaOnly := func(t *testing.T, dir string) {
		if err := os.WriteFile(filepath.Join(dir, "actorprof_meta.txt"), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		write   func(t *testing.T, dir string)
		args    []string
		wantErr string // "" = must succeed
	}{
		{
			name:    "empty dir",
			write:   func(*testing.T, string) {},
			args:    nil,
			wantErr: "reading trace directory",
		},
		{
			name:    "meta only, default plots",
			write:   metaOnly,
			args:    nil,
			wantErr: "no renderable data",
		},
		{
			name:    "meta only, violin requested",
			write:   metaOnly,
			args:    []string{"-violin"},
			wantErr: "nothing to plot",
		},
		{
			name:    "no overall, -s requested",
			write:   written(trace.Config{Logical: true}, ""),
			args:    []string{"-s"},
			wantErr: "no overall breakdown",
		},
		{
			name:    "no PAPI, -lp requested",
			write:   written(trace.Config{Logical: true}, ""),
			args:    []string{"-lp"},
			wantErr: "no PAPI events",
		},
		{
			name:    "no physical, export requested",
			write:   written(trace.Config{Logical: true}, ""),
			args:    []string{"export"},
			wantErr: "nothing to export",
		},
		{
			name:    "truncated logical line",
			write:   written(trace.Config{Logical: true}, "PE0_send.bin"),
			args:    []string{"-l"},
			wantErr: "reading trace directory",
		},
		{
			name:    "truncated overall line",
			write:   written(trace.Config{Overall: true}, "overall.bin"),
			args:    []string{"-s"},
			wantErr: "reading trace directory",
		},
		{
			// No sends at all: all-zero violins must render, not crash
			// (the historical stats.Summarize empty-input panic path).
			name: "empty csv renders zero plots",
			write: func(t *testing.T, dir string) {
				if err := trace.NewSet(trace.Config{Logical: true, Physical: true}, 4, 2).WriteFiles(dir); err != nil {
					t.Fatal(err)
				}
			},
			args:    []string{"-violin"},
			wantErr: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)
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

// TestCLIImport: a directory holding only the paper's text layout is
// imported into one the readers open, which renders the plots the
// original renders and holds the same text files, byte for byte.
func TestCLIImport(t *testing.T) {
	orig := writeTrace(t, trace.FormatCSV)
	paper, out := t.TempDir(), filepath.Join(t.TempDir(), "imported")
	entries, err := os.ReadDir(orig)
	if err != nil {
		t.Fatal(err)
	}
	var text []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".bin" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(orig, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(paper, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		text = append(text, e.Name())
	}
	if err := run([]string{"-l", paper}); err == nil || !strings.Contains(err.Error(), "no logical trace") {
		t.Fatalf("a paper-layout directory read as a trace directory: %v", err)
	}
	if msg := capture(t, func() error { return run([]string{"import", paper, out}) }); !strings.Contains(msg, "0 lines skipped") {
		t.Fatalf("import reported %q", msg)
	}
	for _, name := range text {
		want, _ := os.ReadFile(filepath.Join(orig, name))
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil || string(got) != string(want) {
			t.Errorf("%s differs after import (err %v)", name, err)
		}
	}
	if a, b := capture(t, func() error { return run([]string{"-l", "-s", orig}) }), capture(t, func() error { return run([]string{"-l", "-s", out}) }); strings.SplitN(a, "\n", 2)[1] != strings.SplitN(b, "\n", 2)[1] {
		t.Errorf("the import renders differently from the original:\n%s\nvs\n%s", b, a)
	}
	if err := run([]string{"import", paper}); err == nil {
		t.Error("import accepted a single directory")
	}
}

func TestCLIBadArguments(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("expected error for missing trace dir")
	}
	if err := run([]string{"/nonexistent/trace/dir"}); err == nil {
		t.Error("expected error for bad trace dir")
	}
	dir := writeTrace(t, trace.FormatBinary)
	if err := run([]string{"-lp", "-event", "PAPI_BOGUS", dir}); err == nil {
		t.Error("expected error for unknown PAPI event")
	}
}

// TestCLIEventIsARecordedOne: -event resolves the way actorprofd's
// ?event= does. An event the run did not record is an error, not an
// all-zero bar chart, and with no -event the bar draws the first event
// the run recorded.
func TestCLIEventIsARecordedOne(t *testing.T) {
	papiTrace := func(events ...papi.Event) string {
		dir := t.TempDir()
		set, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: 4, PEsPerNode: 4},
			Trace:   trace.Config{Logical: true, PAPIEvents: events},
		}, func(rt *actor.Runtime) error {
			_, err := apps.Histogram(rt, apps.HistogramConfig{UpdatesPerPE: 50, TableSizePerPE: 8, Seed: 3})
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
	err := run([]string{"-lp", "-event", "PAPI_L1_DCM", papiTrace(papi.TOT_INS)})
	if err == nil || !strings.Contains(err.Error(), "did not record PAPI_L1_DCM (recorded: PAPI_TOT_INS)") {
		t.Errorf("-event PAPI_L1_DCM on a PAPI_TOT_INS-only trace: err = %v, want an unrecorded-event error", err)
	}
	out := capture(t, func() error { return run([]string{"-lp", papiTrace(papi.LST_INS, papi.TOT_INS)}) })
	if !strings.Contains(out, "PAPI_LST_INS per PE") || strings.Contains(out, "PAPI_TOT_INS per PE") {
		t.Errorf("-lp without -event must draw the first recorded event, PAPI_LST_INS:\n%s", out)
	}
}
