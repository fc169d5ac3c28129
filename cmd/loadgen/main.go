// Command loadgen load-tests actorprofd and gates CI against a
// committed LOAD.json; the compute hot path's allocation budgets are
// tests in their own packages.
//
// Run mode drives a fleet of concurrent clients through a zipfian mix
// of plot renders (hot-set traffic), sequential one-shot scans (the
// cache-adversarial pattern), and /api/runs listing pages, with a
// configurable share of conditional (If-None-Match) revisits and
// gzip-accepting clients. Latencies are recorded in HDR-style
// histograms after a warmup window and written as LOAD.json:
//
//	go run ./cmd/loadgen run -dir /path/to/traces -clients 10000 -duration 30s -out LOAD.json
//	go run ./cmd/loadgen run -url http://localhost:8080 -clients 2000 -duration 10s
//
// -dir mounts the serving engine in-process (no sockets), which is how
// one box sustains 10k concurrent clients; -url drives a running
// daemon over HTTP. The whole request sequence is a pure function of
// -seed, so a committed LOAD.json is reproducible.
//
// Compare mode gates a current LOAD.json against a baseline and exits
// non-zero on violation: error rate over budget, p99 regressed beyond
// the threshold above an absolute floor, or p99 over an absolute
// ceiling:
//
//	go run ./cmd/loadgen compare -baseline LOAD_baseline.json -current LOAD.json -max-p99 250ms
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"actorprof/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: loadgen <run|compare> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:], os.Stdout)
	case "compare":
		err = compareCmd(os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q (want run or compare)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func runCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	url := fs.String("url", "", "base URL of a running actorprofd (e.g. http://localhost:8080)")
	dir := fs.String("dir", "", "trace root to serve in-process instead of dialing a daemon")
	clients := fs.Int("clients", 100, "concurrent clients")
	duration := fs.Duration("duration", 10*time.Second, "measured window after warmup")
	warmup := fs.Duration("warmup", 2*time.Second, "warmup window excluded from the record")
	zipfS := fs.Float64("zipf-s", 1.1, "zipfian skew of the plot mix (higher = hotter hot set)")
	seed := fs.Uint64("seed", 1, "base PRNG seed; the request sequence is a pure function of it")
	scanFrac := fs.Float64("scan-frac", 0.10, "fraction of requests sweeping all targets in order (one-shot scan traffic)")
	runsFrac := fs.Float64("runs-frac", 0.05, "fraction of requests paging /api/runs")
	condFrac := fs.Float64("conditional-frac", 0.25, "fraction of plot requests revalidating with If-None-Match")
	gzipFrac := fs.Float64("gzip-frac", 0.5, "fraction of requests sending Accept-Encoding: gzip")
	outPath := fs.String("out", "LOAD.json", "report path")
	cacheMB := fs.Int64("cache-mb", 64, "render cache budget in MiB (in-process mode only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		tr        transport
		transName string
		target    string
	)
	switch {
	case *dir != "" && *url != "":
		return fmt.Errorf("-dir and -url are mutually exclusive")
	case *dir != "":
		srv, err := serve.New(serve.Config{Root: *dir, CacheBytes: *cacheMB << 20})
		if err != nil {
			return err
		}
		tr, transName, target = &inprocTransport{h: srv.Handler()}, "inproc", *dir
	case *url != "":
		tr, transName, target = newHTTPTransport(*url, *clients), "http", *url
	default:
		return fmt.Errorf("one of -dir or -url is required")
	}

	ctx := context.Background()
	targets, runsTotal, err := discoverTargets(ctx, tr)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		return fmt.Errorf("no servable plots under %s; nothing to load", target)
	}
	fmt.Fprintf(out, "loadgen: %d clients over %d targets (%d runs) via %s, %s warmup + %s measured\n",
		*clients, len(targets), runsTotal, transName, *warmup, *duration)

	w := &workload{
		tr:        tr,
		targets:   targets,
		runsTotal: runsTotal,
		seed:      *seed,
		zipfS:     *zipfS,
		scanFrac:  *scanFrac,
		runsFrac:  *runsFrac,
		condFrac:  *condFrac,
		gzipFrac:  *gzipFrac,
	}
	report := runWorkload(ctx, w, *clients, *duration, *warmup)
	report.Config = RunConfig{
		Transport:       transName,
		Target:          target,
		Clients:         *clients,
		DurationS:       duration.Seconds(),
		WarmupS:         warmup.Seconds(),
		ZipfS:           *zipfS,
		Seed:            *seed,
		ScanFrac:        *scanFrac,
		RunsFrac:        *runsFrac,
		ConditionalFrac: *condFrac,
		GzipFrac:        *gzipFrac,
		Runs:            runsTotal,
		Targets:         len(targets),
	}

	if err := writeReport(*outPath, report); err != nil {
		return err
	}
	fmt.Fprintf(out, "loadgen: %d requests (%d errors), %.0f req/s, %d/%d clients active, %s\n",
		report.Totals.Requests, report.Totals.Errors, report.Totals.ThroughputRPS,
		report.Totals.ClientsActive, *clients, statusSummary(report.Status))
	fmt.Fprintf(out, "loadgen: latency p50 %dus p90 %dus p99 %dus p999 %dus max %dus -> %s\n",
		report.Latency.P50, report.Latency.P90, report.Latency.P99,
		report.Latency.P999, report.Latency.Max, *outPath)
	return nil
}

func compareCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baseline := fs.String("baseline", "LOAD_baseline.json", "baseline LOAD.json")
	current := fs.String("current", "LOAD.json", "current LOAD.json")
	threshold := fs.Float64("threshold", 0.25, "p99 regression budget vs baseline (fraction)")
	floor := fs.Duration("floor", 5*time.Millisecond, "ignore p99 regressions below this absolute latency")
	maxP99 := fs.Duration("max-p99", 0, "absolute p99 ceiling (0 disables)")
	maxErr := fs.Float64("max-error-rate", 0.001, "maximum tolerated (transport error + 5xx) fraction")
	minActive := fs.Float64("min-active", 0.95, "fraction of clients that must complete at least one measured request")
	if err := fs.Parse(args); err != nil {
		return err
	}

	base, err := loadReport(*baseline)
	if err != nil {
		return err
	}
	cur, err := loadReport(*current)
	if err != nil {
		return err
	}
	text, failures := compareReports(base, cur, gateOpts{
		threshold:    *threshold,
		floorUs:      floor.Microseconds(),
		maxP99Us:     maxP99.Microseconds(),
		maxErrorRate: *maxErr,
		minActive:    *minActive,
	})
	fmt.Fprint(out, text)
	if failures > 0 {
		return fmt.Errorf("%d gate violation(s)", failures)
	}
	return nil
}
