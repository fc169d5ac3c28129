// Command bench runs the repository's benchmark suites and emits
// machine-readable BENCH.json, and gates CI against a committed
// baseline.
//
// Run mode executes `go test -bench` over a suite and writes BENCH.json:
//
//	go run ./cmd/bench run -suite hot -benchtime 100ms -count 3 -out BENCH.json
//
// Suites: "hot" (the microbenchmarks guarding the zero-allocation
// message path), "figures" (the paper's Fig03-Fig13 end-to-end
// benchmarks), "all" (both).
//
// Compare mode diffs a current BENCH.json against the committed
// baseline and exits non-zero when a hot-path benchmark allocates more
// per op or has gone missing. ns/op deltas are printed, never gated: the
// baseline was recorded on another machine.
//
//	go run ./cmd/bench compare -baseline BENCH_baseline.json -current BENCH.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// hotPkgs and hotBench select the microbenchmarks of the message path,
// the trace pipeline, the what-if engines and actorprofd's render miss
// and cache hit.
var hotPkgs = []string{"./internal/shmem", "./internal/conveyor", "./internal/actor", "./internal/trace", "./internal/whatif", "./internal/apps",
	"./internal/viz", "./internal/serve"}

const hotBench = "BenchmarkPushThroughput|BenchmarkPushPullLocal|BenchmarkExchangeLinear16PE|" +
	"BenchmarkHandlerDispatch|BenchmarkHandlerDispatchBatch|BenchmarkISort|" +
	"BenchmarkCodecRoundTrip|BenchmarkSendRecvUntraced|" +
	"BenchmarkRuntimeWork|BenchmarkLoadInt64|BenchmarkPutInt64Foreign|BenchmarkIngestForward|BenchmarkIngestDeliver|" +
	"BenchmarkReadSet|BenchmarkWriteFiles|BenchmarkReadSummary|BenchmarkCollectFullTrace|" +
	"BenchmarkAppendLogicalLine|" +
	"BenchmarkWindowQueryEvents|BenchmarkWindowQueryPyramid|BenchmarkWindowQueryFullScan|" +
	"BenchmarkCriticalPath|BenchmarkWhatIfReplay|BenchmarkWriteScheduleFile|BenchmarkReadScheduleFile|" +
	"BenchmarkCompare|BenchmarkRenderHeatmapSVG|BenchmarkWithGzip|BenchmarkServeHit"

// suites maps a suite name to the package patterns and -bench regex the
// runner hands to go test.
var suites = map[string]struct {
	pkgs  []string
	bench string
}{
	"hot":     {hotPkgs, "^(" + hotBench + ")$"},
	"figures": {[]string{"."}, "^BenchmarkFig"},
	"all":     {append([]string{"."}, hotPkgs...), "^(BenchmarkFig.*|" + hotBench + ")$"},
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench <run|compare> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "compare":
		err = compareCmd(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (want run or compare)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	suite := fs.String("suite", "hot", "benchmark suite: hot, figures, or all")
	benchtime := fs.String("benchtime", "100ms", "go test -benchtime value")
	count := fs.Int("count", 3, "go test -count value")
	out := fs.String("out", "BENCH.json", "output path for the results JSON")
	benchRe := fs.String("bench", "", "override the suite's -bench regex")
	fs.Parse(args)

	s, ok := suites[*suite]
	if !ok {
		return fmt.Errorf("unknown suite %q (want hot, figures, or all)", *suite)
	}
	re := s.bench
	if *benchRe != "" {
		re = *benchRe
	}
	gotest := append([]string{"test", "-run", "^$", "-bench", re,
		"-benchmem", "-benchtime", *benchtime, "-count", fmt.Sprint(*count)}, s.pkgs...)
	cmd := exec.Command("go", gotest...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test: %w", err)
	}
	results, err := parseBenchOutput(&buf)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results parsed (regex %q matched nothing?)", re)
	}
	doc := File{Benchtime: *benchtime, Count: *count, Results: results}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if err := os.WriteFile(*out, js, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d results to %s\n", len(results), *out)
	return nil
}

func compareCmd(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline JSON")
	curPath := fs.String("current", "BENCH.json", "freshly measured JSON")
	fs.Parse(args)

	baseline, err := loadFile(*basePath)
	if err != nil {
		return err
	}
	current, err := loadFile(*curPath)
	if err != nil {
		return err
	}
	report, failures := compare(baseline, current)
	fmt.Print(report)
	if failures > 0 {
		return fmt.Errorf("%d benchmark regression(s)", failures)
	}
	return nil
}

func loadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
