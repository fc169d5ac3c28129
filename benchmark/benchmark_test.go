package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the full invocation under test re-execute this test
// binary as its per-workload child processes.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHMARK_TEST_CHILD") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the program: the
// same workloads, the same metrics with the same units, directions and
// bounds, and the run length the program defaults to.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program runs %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var e2e, layers []metricDef
	for _, d := range metricDefs {
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q is not made of letters, digits, '_', '.', '-'", d.name)
		}
		if d.kind == gated {
			e2e = append(e2e, d)
		} else {
			layers = append(layers, d)
		}
	}
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("end_to_end lists %d metrics, the program gates %d", len(b.EndToEnd), len(e2e))
	}
	for i, m := range b.EndToEnd {
		if d := e2e[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("per_layer lists %d metrics, the program reports %d", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		if d := layers[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, d)
		}
	}
}

// TestSmoke runs the full invocation - all four workloads, each in a
// child process, both passes - at the smoke size and checks what it
// emits.
func TestSmoke(t *testing.T) {
	t.Setenv("BENCHMARK_TEST_CHILD", "1")
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-size", "smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResultFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 42 || res.Size != "smoke" || res.GOMAXPROCS < 1 || res.Go == "" || res.Commit == "" {
		t.Errorf("result header incomplete: %+v", res)
	}

	// Which metrics each workload must measure (the rest read 0).
	everywhere := []string{"setup_s", "call_p50_ms", "work_per_s", "peak_rss_mb", "harness.gomaxprocs"}
	ladder := []string{"run_wall_s", "msgs_per_s", "apps.logical_msgs", "papi.tot_ins", "sim.makespan_cycles",
		"shmem.rung_wall_s", "conveyor.rung_wall_s", "actor.rung_wall_s", "apps.rung_wall_s", "trace.rung_wall_s",
		"shmem.copylocal_calls", "shmem.barrier_calls", "shmem.barrier_ns", "shmem.yield_ns", "shmem.load_ns",
		"conveyor.local_sends", "conveyor.items_per_buffer", "conveyor.advances_per_msg", "actor.msgs_per_invocation",
		"sim.charge_ns", "harness.layer_pass_overhead_ratio"}
	must := map[string][]string{
		"tc_p256_agg": append([]string{"pe_scaling_ratio", "shmem.putmem_nbi_calls", "shmem.quiet_calls",
			"conveyor.nonblock_sends", "graph.rmat_gen_s", "graph.serial_count_s"}, ladder...),
		"tc_p16_full": append([]string{"trace_overhead_ratio", "trace_to_plot_s", "trace_disk_mb", "trace.records",
			"trace.write_s", "trace.read_set_s", "trace.read_summary_s", "trace.build_index_s", "trace.window_query_us",
			"trace.write_mb_per_s", "trace.read_mb_per_s", "sim.capture_overhead_ratio", "sim.schedule_events",
			"core.build_plots_ms", "core.cold_run_s", "viz.render_svg_ms", "viz.svg_bytes",
			"whatif.project_ms", "whatif.replay_ms", "whatif.compare_ms"}, ladder...),
		"isort_p64_batch": ladder,
		"serve_zipf": {"req_per_s", "req_p50_us", "req_p99_us", "serve.hit_p50_us", "serve.notmod_p50_us",
			"serve.miss_p50_us", "serve.miss_p99_us", "serve.runs_p50_us", "serve.events_p50_us", "serve.whatif_p50_us",
			"serve.req_p999_us", "serve.cache_hit_ratio", "serve.cache_misses", "serve.status_304_share",
			"serve.bytes_out", "trace.read_summary_s", "viz.render_svg_ms", "viz.svg_bytes"},
	}
	for _, name := range workloadNames {
		wr := res.Workloads[name]
		if wr == nil {
			t.Fatalf("workload %s is missing from the result file", name)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, wr.Failed, wr.Attempted, wr.Failures)
		}
		for metric, st := range wr.Metrics {
			if _, ok := metricByName(metric); !ok {
				t.Errorf("%s emits %s, which BENCHMARK.json does not list", name, metric)
			}
			negativeOK := strings.HasSuffix(metric, ".growth_ns_per_msg")
			for _, v := range []float64{st.Median, st.Q1, st.Q3, st.Min, st.Max} {
				if math.IsNaN(v) || math.IsInf(v, 0) || (v < 0 && !negativeOK) {
					t.Errorf("%s %s = %v", name, metric, v)
				}
			}
		}
		for _, metric := range append(everywhere, must[name]...) {
			if st, ok := wr.Metrics[metric]; !ok || st.N == 0 || st.Median <= 0 {
				t.Errorf("%s: %s was not measured (%+v)", name, metric, st)
			}
		}
		if name != "serve_zipf" {
			checkLadder(t, name, wr)
		}
		if _, err := os.Stat(filepath.Join(out, name, "spans.json")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// One workload alone prints the driver's last line: every gated
	// metric with -trace 0, every per_layer metric with -trace 1.
	b := loadBenchmarkJSON(t)
	for mode, want := range map[string]int{"0": len(b.EndToEnd), "1": len(b.PerLayer)} {
		stdout.Reset()
		args := []string{"--workload", "isort_p64_batch", "--seed", "7", "--seconds", "0", "--trace", mode,
			"-size", "smoke", "-out", filepath.Join(out, "single")}
		if code := run(args, &stdout, io.Discard); code != 0 {
			t.Fatalf("-trace %s: exit code %d", mode, code)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("-trace %s: last line is not JSON: %v", mode, err)
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != want {
			t.Errorf("-trace %s: correct=%v attempted=%d failed=%d, %d metrics (want %d)",
				mode, last.Correct, last.Attempted, last.Failed, len(last.Metrics), want)
		}
		for _, m := range b.EndToEnd {
			if v, ok := last.Metrics[m.Name]; mode == "0" && (!ok || v.Value <= 0 || v.Unit != m.Unit) {
				t.Errorf("-trace 0: %s = %+v", m.Name, v)
			}
		}
		for _, m := range b.PerLayer {
			if v, ok := last.Metrics[m.Name]; mode == "1" && (!ok || v.Unit != m.Unit) {
				t.Errorf("-trace 1: %s = %+v", m.Name, v)
			}
		}
	}
}

// checkLadder asserts that the rungs are monotone within noise. At the
// smoke size a rung lasts milliseconds and `go test ./...` runs another
// package's tests on the other core, so the fastest repetition of a rung
// is compared, and a rung may undercut the one below by its own wall plus
// two milliseconds before the order counts as wrong.
func checkLadder(t *testing.T, name string, wr *workloadResult) {
	t.Helper()
	rungs := []string{"shmem", "conveyor", "actor", "apps"}
	for i := 1; i < len(rungs); i++ {
		lo := wr.Metrics[rungs[i-1]+".rung_wall_s"].Min
		hi := wr.Metrics[rungs[i]+".rung_wall_s"].Min
		if lo > hi*2+0.002 {
			t.Errorf("%s: rung %s (%.6fs) is taller than rung %s (%.6fs)", name, rungs[i-1], lo, rungs[i], hi)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(seed uint64, wall, q1, q3 float64, failed int) *resultFile {
		return &resultFile{Seed: seed, GOMAXPROCS: 2, Size: "full", Seconds: 15, Workloads: map[string]*workloadResult{
			"w": {Attempted: 10, Failed: failed, FailRatio: float64(failed) / 10, Metrics: map[string]stat{
				"run_wall_s": {Unit: "s", N: 5, Median: wall, Q1: q1, Q3: q3},
				"msgs_per_s": {Unit: "1/s", N: 5, Median: 1 / wall, Q1: 1 / q3, Q3: 1 / q1},
			}},
		}}
	}
	base := mk(42, 1.0, 0.99, 1.01, 0)
	cases := []struct {
		name    string
		other   *resultFile
		worse   int
		wantErr bool
		verdict string
	}{
		{"same", mk(42, 1.02, 1.01, 1.03, 0), 0, false, "ok"},
		{"slower", mk(42, 1.3, 1.29, 1.31, 0), 2, false, "worse"},
		{"faster", mk(42, 0.5, 0.49, 0.51, 0), 0, false, "ok"},
		{"noisy", mk(42, 1.3, 1.0, 1.6, 0), 0, false, "unresolved"},
		{"failing", mk(42, 1.0, 0.99, 1.01, 1), 1, false, "worse"},
		{"other seed", mk(7, 1.0, 0.99, 1.01, 0), 0, true, ""},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		worse, err := compareResults(base, c.other, &buf)
		if (err != nil) != c.wantErr || worse != c.worse || !strings.Contains(buf.String(), c.verdict) {
			t.Errorf("%s: worse=%d err=%v, want worse=%d err=%v and a %q verdict\n%s",
				c.name, worse, err, c.worse, c.wantErr, c.verdict, buf.String())
		}
	}
}

// TestQuantilesMatchPython pins the quartile rule to the values Python's
// statistics.quantiles(v, n=4) returns.
func TestQuantilesMatchPython(t *testing.T) {
	st := summarize("", []float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if st.Q1 != 2.75 || st.Median != 5.5 || st.Q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python gives 2.75 5.5 8.25", st.Q1, st.Median, st.Q3)
	}
	st = summarize("", []float64{3, 1, 2})
	if st.Q1 != 1 || st.Median != 2 || st.Q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, Python gives 1 2 3", st.Q1, st.Median, st.Q3)
	}
}

func TestRoundRobinKeepsTheRow(t *testing.T) {
	row := []int64{3, 0, 1, 5}
	got := make([]int64, len(row))
	var order []int
	roundRobin(row, func(dst int) { got[dst]++; order = append(order, dst) })
	for d := range row {
		if got[d] != row[d] {
			t.Errorf("destination %d got %d messages, the row has %d", d, got[d], row[d])
		}
	}
	if want := []int{0, 2, 3, 0, 3, 0, 3, 3, 3}; len(order) != len(want) {
		t.Fatalf("order = %v", order)
	} else {
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v, want %v", order, want)
			}
		}
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	rec := newRecorder("w")
	root := rec.begin("layer_pass", "", 0, -1)
	id := rec.begin("rung", "shmem", 2, root)
	rec.endAfter(id, 1500)
	rec.end(root)
	rec.count("msgs", 12)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.spans) != 2 || back.spans[1] != rec.spans[1] || back.counts["msgs"] != 12 || back.workload != "w" {
		t.Errorf("read back %+v %v, wrote %+v", back.spans, back.counts, rec.spans)
	}
	if d := back.durations("rung", "shmem"); len(d) != 1 || d[0] != 1.5e-6 {
		t.Errorf("durations = %v", d)
	}
}
