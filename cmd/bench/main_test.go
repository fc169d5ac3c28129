package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: actorprof/internal/conveyor
cpu: Test CPU @ 2.00GHz
BenchmarkPushThroughput 	 7528732	        32.08 ns/op	       0 B/op	       0 allocs/op
BenchmarkPushThroughput 	 7000000	        35.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkExchangeLinear16PE-8 	      72	   3241765 ns/op	     64000 msgs/op	 2854431 B/op	     950 allocs/op
PASS
ok  	actorprof/internal/conveyor	0.671s
pkg: actorprof/internal/actor
BenchmarkCodecRoundTrip 	96985598	        12.44 ns/op	       0 B/op	       0 allocs/op
--- BENCH: some log line that is not a measurement
BenchmarkHandlerDispatch 	  500000	       210.00 ns/op	       1 B/op	       0 allocs/op
BenchmarkHandlerDispatch 	  500000	       205.00 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	actorprof/internal/actor	1.2s
`

func TestParseBenchOutput(t *testing.T) {
	results, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Result)
	for _, r := range results {
		byName[r.Name] = r
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4: %+v", len(results), results)
	}
	pt := byName["BenchmarkPushThroughput"]
	if pt.Package != "actorprof/internal/conveyor" {
		t.Errorf("PushThroughput package = %q", pt.Package)
	}
	if pt.NsPerOp != 32.08 { // min across the two runs
		t.Errorf("PushThroughput ns/op = %v, want 32.08", pt.NsPerOp)
	}
	if pt.Runs != 2 {
		t.Errorf("PushThroughput runs = %d, want 2", pt.Runs)
	}
	ex := byName["BenchmarkExchangeLinear16PE"]
	if ex.Name != "BenchmarkExchangeLinear16PE" {
		t.Fatalf("cpu suffix not stripped: %+v", byName)
	}
	if ex.AllocsPerOp != 950 || ex.Metrics["msgs/op"] != 64000 {
		t.Errorf("Exchange parsed wrong: %+v", ex)
	}
	hd := byName["BenchmarkHandlerDispatch"]
	if hd.NsPerOp != 205 { // min ns
		t.Errorf("HandlerDispatch ns/op = %v, want 205", hd.NsPerOp)
	}
	if hd.BytesPerOp != 1 { // max bytes
		t.Errorf("HandlerDispatch B/op = %v, want 1", hd.BytesPerOp)
	}
}

func mkFile(results ...Result) File {
	return File{Benchtime: "100ms", Count: 3, Results: results}
}

func res(name string, ns, allocs float64) Result {
	return Result{Name: name, Package: "actorprof/internal/conveyor",
		NsPerOp: ns, AllocsPerOp: allocs, Runs: 3}
}

func TestCompareNsDeltaIsPrintedNotGated(t *testing.T) {
	// The baseline was measured on another machine: a slower ns/op on a
	// hot benchmark is shown to the reader and fails nothing.
	baseline := mkFile(res("BenchmarkPushThroughput", 100, 0))
	current := mkFile(res("BenchmarkPushThroughput", 150, 0))
	report, failures := compare(baseline, current)
	if failures != 0 {
		t.Fatalf("ns/op delta gated:\n%s", report)
	}
	if !strings.Contains(report, "+50.0%") {
		t.Errorf("report does not show the ns/op delta:\n%s", report)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	baseline := mkFile(res("BenchmarkHandlerDispatch", 100, 0))
	current := mkFile(res("BenchmarkHandlerDispatch", 100, 1))
	report, failures := compare(baseline, current)
	if failures != 1 {
		t.Fatalf("want 1 failure, got %d:\n%s", failures, report)
	}
	if !strings.Contains(report, "FAIL") || !strings.Contains(report, "allocs/op") {
		t.Errorf("report does not name the allocs/op regression:\n%s", report)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	baseline := mkFile(res("BenchmarkPushThroughput", 100, 2))
	current := mkFile(res("BenchmarkPushThroughput", 50, 0))
	report, failures := compare(baseline, current)
	if failures != 0 {
		t.Fatalf("improvement flagged as regression:\n%s", report)
	}
}

func TestCompareMissingHotBenchmarkFails(t *testing.T) {
	baseline := mkFile(res("BenchmarkPushThroughput", 100, 0))
	current := mkFile()
	report, failures := compare(baseline, current)
	if failures != 1 {
		t.Fatalf("want 1 failure for missing hot benchmark, got %d:\n%s", failures, report)
	}
}

func TestCompareNonHotOnlyWarns(t *testing.T) {
	baseline := mkFile(res("BenchmarkFig03LogicalHeatmap1Node", 100, 5000))
	current := mkFile(res("BenchmarkFig03LogicalHeatmap1Node", 150, 9000)) // +50%, more allocs
	report, failures := compare(baseline, current)
	if failures != 0 {
		t.Fatalf("non-hot benchmark must not gate, got %d failures:\n%s", failures, report)
	}
	if !strings.Contains(report, "warn") {
		t.Errorf("expected a warning line:\n%s", report)
	}
}

// TestGatedBenchmarksAreRun: a benchmark compare gates on that no suite
// runs would fail every gate as "missing".
func TestGatedBenchmarksAreRun(t *testing.T) {
	run := "|" + hotBench + "|"
	for name := range hotPath {
		top, _, _ := strings.Cut(name, "/")
		if !strings.Contains(run, "|"+top+"|") {
			t.Errorf("%s gates compare but the hot suite does not run it", name)
		}
	}
}
