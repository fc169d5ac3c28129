package serve

import (
	"encoding/json"
	"net/http"
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

// writeCapturedRun produces a finished trace directory with a recorded
// schedule sidecar under root.
func writeCapturedRun(t testing.TB, root, id string) {
	t.Helper()
	set, sched, err := core.RunCaptured(core.Options{
		Machine: sim.Machine{NumPEs: 4, PEsPerNode: 2},
		Trace:   trace.Config{Overall: true, Physical: true},
	}, func(rt *actor.Runtime) error {
		_, err := apps.Histogram(rt, apps.HistogramConfig{
			UpdatesPerPE: 100, TableSizePerPE: 32, Seed: 7,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, id)
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if err := whatif.WriteScheduleFile(dir, sched); err != nil {
		t.Fatal(err)
	}
}

// TestWhatIfRefusesWhatItCannotAnswer: /whatif asks the engines' own
// check, so a cost scaled past an int64 and a speedup of an actor that
// never ran are 400s naming their parameter, as the CLI's are errors
// naming its flag.
func TestWhatIfRefusesWhatItCannotAnswer(t *testing.T) {
	root := t.TempDir()
	writeCapturedRun(t, root, "cap")
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if res, body := get(t, h, "/runs/cap/whatif?actor=0&speedup=2"); res.StatusCode != http.StatusOK {
		t.Fatalf("a speedup of actor 0: status %d: %s", res.StatusCode, body)
	}
	for query, param := range map[string]string{
		"scale_network=1e300":    "scale_network ",
		"scale_instr=1e300":      "scale_instr ",
		"actor=999999&speedup=2": "actor ",
		"scale_network=-2":       "scale_network ",
		"speedup=NaN&actor=0":    "speedup ",
	} {
		res, body := get(t, h, "/runs/cap/whatif?"+query)
		if res.StatusCode != http.StatusBadRequest || !strings.Contains(body, param) || strings.Contains(body, "-9223372036854775808") {
			t.Errorf("%s: status %d, want a 400 naming %q: %s", query, res.StatusCode, param, body)
		}
	}
}

func TestWhatIfEndpoint(t *testing.T) {
	root := t.TempDir()
	writeCapturedRun(t, root, "cap1")
	writeRun(t, root, "plain") // no schedule
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Baseline report: zero deltas, windows and bottlenecks present.
	res, body := get(t, h, "/runs/cap1/whatif")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", res.StatusCode, body)
	}
	var rep whatif.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("baseline report: %v", err)
	}
	if rep.Delta.Makespan != 0 || rep.Delta.TTotal != 0 {
		t.Errorf("baseline deltas nonzero: %+v", rep.Delta)
	}
	if len(rep.Baseline.Windows) == 0 || len(rep.Baseline.Bottlenecks) == 0 {
		t.Errorf("baseline analysis missing windows/bottlenecks")
	}

	// Perturbed report: slower network must not shrink the makespan.
	res, body = get(t, h, "/runs/cap1/whatif?scale_network=2")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("perturbed: status %d: %s", res.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Delta.Makespan < 0 {
		t.Errorf("2x network shrank makespan by %d", -rep.Delta.Makespan)
	}

	// SVG plots.
	for _, path := range []string{
		"/runs/cap1/whatif?scale_network=2&plot=compare&format=svg",
		"/runs/cap1/whatif?plot=bottleneck&format=svg",
	} {
		res, body = get(t, h, path)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, res.StatusCode, body)
		}
		if ct := res.Header.Get("Content-Type"); ct != "image/svg+xml" {
			t.Errorf("%s: content type %q", path, ct)
		}
		if !strings.Contains(body, "<svg") {
			t.Errorf("%s: no SVG in body", path)
		}
	}

	// ETag revalidation.
	res, _ = get(t, h, "/runs/cap1/whatif?scale_network=2")
	etag := res.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on whatif response")
	}
	if res304, _ := getH(t, h, "GET", "/runs/cap1/whatif?scale_network=2",
		map[string]string{"If-None-Match": etag}); res304.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match: status %d, want 304", res304.StatusCode)
	}

	// Bad parameters are client errors.
	for _, path := range []string{
		"/runs/cap1/whatif?scale_network=0",
		"/runs/cap1/whatif?scale_network=banana",
		"/runs/cap1/whatif?speedup=2",
		"/runs/cap1/whatif?plot=nope",
		"/runs/cap1/whatif?format=svg",
	} {
		res, _ = get(t, h, path)
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, res.StatusCode)
		}
	}

	// Runs without a schedule 404.
	res, body = get(t, h, "/runs/plain/whatif")
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("plain run: status %d, want 404: %s", res.StatusCode, body)
	}
	if !strings.Contains(body, "has no recorded schedule") || strings.Contains(body, ".json") {
		t.Errorf("plain run error does not say it has no schedule, or names a file a capture does not write: %s", body)
	}

	// The index links whatif only for runs that recorded a schedule.
	res, body = get(t, h, "/")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("index: status %d", res.StatusCode)
	}
	if !strings.Contains(body, "/runs/cap1/whatif") {
		t.Errorf("index does not link /runs/cap1/whatif")
	}
	if strings.Contains(body, "/runs/plain/whatif") {
		t.Errorf("index links whatif for the schedule-less run")
	}
}
