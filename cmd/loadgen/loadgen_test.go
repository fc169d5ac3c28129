package main

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"actorprof/internal/serve"
	"actorprof/internal/trace"
)

func newInprocForTest(t *testing.T, root string) transport {
	t.Helper()
	srv, err := serve.New(serve.Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	return &inprocTransport{h: srv.Handler()}
}

// writeMiniRun writes a minimal logical-only 2-PE trace directory, one
// send per PE, the same shape internal/serve's hardening tests use.
func writeMiniRun(t *testing.T, root, id string, salt int) {
	t.Helper()
	s := trace.NewSet(trace.Config{Logical: true}, 2, 2)
	s.Logical[0] = []trace.LogicalSend{{DstPE: 1, MsgSize: int32(8 + salt%7)}}
	s.Logical[1] = []trace.LogicalSend{{DstPE: 0, MsgSize: int32(16 + salt%5)}}
	if err := s.WriteFiles(filepath.Join(root, id)); err != nil {
		t.Fatal(err)
	}
}

// TestLoadgenEndToEndInproc: a short real run against an in-process
// server produces a sane LOAD.json - requests flowed, nothing errored,
// conditional traffic produced 304s, every class saw traffic - and the
// report self-gates cleanly through the compare path.
func TestLoadgenEndToEndInproc(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 3; i++ {
		writeMiniRun(t, root, fmt.Sprintf("run%d", i), i)
	}
	out := filepath.Join(t.TempDir(), "LOAD.json")
	err := runCmd([]string{
		"-dir", root, "-clients", "8", "-duration", "800ms", "-warmup", "100ms",
		"-conditional-frac", "0.5", "-out", out,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	r, err := loadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if r.Totals.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if r.Totals.Errors != 0 || len(r.Errors) != 0 {
		t.Fatalf("transport errors against an in-process server: %v", r.Errors)
	}
	if r.Totals.ClientsActive < 1 || r.Totals.ClientsActive > 8 {
		t.Errorf("clients_active = %d, want 1..8", r.Totals.ClientsActive)
	}
	if r.Status["200"] == 0 {
		t.Error("no 200 responses recorded")
	}
	for code := range r.Status {
		if code != "200" && code != "304" {
			t.Errorf("unexpected status %s: the target pool must only hit valid URLs", code)
		}
	}
	if r.Latency.P50 <= 0 || r.Latency.P99 < r.Latency.P50 {
		t.Errorf("implausible latency summary: %+v", r.Latency)
	}
	if r.Config.Targets != 3*4 { // 3 runs x (heatmap+violin) x (svg+json)
		t.Errorf("discovered %d targets, want 12", r.Config.Targets)
	}

	// The strong distribution assertions only hold when the harness got
	// enough CPU to actually run the fleet; under a contended parallel
	// test machine (1 core shared with heavier packages) a short window
	// may serve only a few clients, which is exactly the starvation the
	// clients_active stat exists to expose - but it is this machine
	// starving the harness, not the server starving clients.
	if r.Totals.ClientsActive == 8 {
		if r.Status["304"] == 0 {
			t.Error("conditional-frac 0.5 produced no 304s")
		}
		for _, class := range []string{"plot", "scan", "runs"} {
			if r.Classes[class].Requests == 0 {
				t.Errorf("class %q saw no traffic", class)
			}
		}
	}

	// The report gates cleanly against itself (-min-active 0: see above,
	// the starvation gate has its own unit test with synthetic reports).
	if err := compareCmd([]string{"-baseline", out, "-current", out, "-min-active", "0"}, io.Discard); err != nil {
		t.Errorf("self-compare failed: %v", err)
	}
}

// TestLoadgenFlagValidation: the run subcommand rejects contradictory
// or missing transport flags instead of hanging.
func TestLoadgenFlagValidation(t *testing.T) {
	if err := runCmd([]string{"-clients", "1"}, io.Discard); err == nil {
		t.Error("no -dir or -url accepted")
	}
	if err := runCmd([]string{"-dir", "/a", "-url", "http://b", "-clients", "1"}, io.Discard); err == nil {
		t.Error("-dir and -url together accepted")
	}
}

// TestDiscoverTargetsDeterministicOrder: the target pool is sorted, so
// zipfian rank i means the same URL on every run with the same root -
// the other half of LOAD.json reproducibility.
func TestDiscoverTargetsDeterministicOrder(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 3; i++ {
		writeMiniRun(t, root, fmt.Sprintf("run%d", i), i)
	}
	tr := newInprocForTest(t, root)
	a, runsA, err := discoverTargets(t.Context(), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, runsB, err := discoverTargets(t.Context(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if runsA != 3 || runsB != 3 {
		t.Fatalf("run counts %d, %d, want 3", runsA, runsB)
	}
	if len(a) != len(b) {
		t.Fatalf("target counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("target order not stable at %d: %q vs %q", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("targets not sorted: %q before %q", a[i-1], a[i])
		}
	}
}
