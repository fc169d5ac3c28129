// Command actorprofd is the ActorProf trace-serving daemon: it watches a
// directory of trace directories and serves every ActorProf
// visualization over HTTP - SVG and JSON heatmaps, quartile violins,
// PAPI bars, overall stacked bars, and the chrome://tracing export -
// with an LRU render cache and live ingestion of directories a
// streaming run (core.Options.StreamDir) is still writing.
//
// Usage:
//
//	actorprofd [-addr host:port] [-dir root] [flags]
//
// Endpoints:
//
//	/                                      index of runs and plots
//	/healthz                               liveness + run count
//	/metrics                               Prometheus text metrics
//	/api/runs                              run listing as JSON
//	/runs/{run}/plots/{kind}.svg           plot as SVG
//	/runs/{run}/plots/{kind}.json          plot data as JSON
//	/runs/{run}/trace.perfetto.json        Perfetto / chrome://tracing export
//	/runs/{run}/events?t0=&t1=&lod=        windowed trace query (time-travel)
//
// Plot kinds: logical-heatmap, physical-heatmap, node-heatmap,
// logical-violin, physical-violin, papi-bar (?event=NAME), papi-grouped,
// overall-absolute, overall-relative.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"actorprof/internal/serve"
	"actorprof/internal/trace"
)

// testOnReady, when set by tests, receives the bound listen address.
var testOnReady func(addr string)

// backfillIndexes builds the time-index sidecar for every trace
// directory under root (root itself included when it is one), so runs
// recorded before the index existed - or whose sidecar went stale -
// answer windowed queries without the full-scan fallback. One corrupt
// run logs and is skipped; it must not keep the daemon from starting.
func backfillIndexes(root string, out io.Writer) error {
	dirs := []string{root}
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("backfill: scanning %s: %w", root, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	built := 0
	for _, d := range dirs {
		if _, err := os.Stat(filepath.Join(d, trace.MetaFile)); err != nil {
			continue // not a trace directory
		}
		ok, err := trace.BuildTimeIndex(d)
		if err != nil {
			fmt.Fprintf(out, "actorprofd: backfill %s: %v\n", d, err)
			continue
		}
		if ok {
			built++
		}
	}
	fmt.Fprintf(out, "actorprofd: backfilled time indexes for %d run(s)\n", built)
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "actorprofd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("actorprofd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "localhost:7070", "listen address")
		dir     = fs.String("dir", "results", "root directory of trace directories to serve")
		cacheMB = fs.Int("cache-mb", 64, "rendered-artifact cache budget in MiB")
		parseN  = fs.Int("parse-concurrency", 2, "max trace directories parsing at once")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request timeout")
		snapTTL = fs.Duration("snapshot-ttl", 500*time.Millisecond,
			"how long directory scans and run fingerprints are reused before re-statting (negative disables)")
		backfill = fs.Bool("backfill", false,
			"build missing/stale time-index sidecars (physical.idx) for every served run at startup")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: actorprofd [-addr host:port] [-dir root] [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %v (the trace root is -dir)", fs.Args())
	}

	if *backfill {
		if err := backfillIndexes(*dir, out); err != nil {
			return err
		}
	}

	srv, err := serve.New(serve.Config{
		Root:             *dir,
		CacheBytes:       int64(*cacheMB) << 20,
		ParseConcurrency: *parseN,
		RequestTimeout:   *timeout,
		SnapshotTTL:      *snapTTL,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(out, "actorprofd: serving traces from %s on http://%s\n", *dir, ln.Addr())
	if testOnReady != nil {
		testOnReady(ln.Addr().String())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, let in-flight requests finish.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "actorprofd: shut down")
	return nil
}
