// Command actorprofd is the ActorProf trace-serving daemon: it watches a
// directory of trace directories and serves every ActorProf
// visualization over HTTP - SVG and JSON heatmaps, quartile violins,
// PAPI bars, overall stacked bars, and the chrome://tracing export -
// with an LRU render cache that re-renders a run whose files changed.
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
	"syscall"
	"time"

	"actorprof/internal/serve"
)

// testOnReady, when set by tests, receives the bound listen address.
var testOnReady func(addr string)

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
		timeout = fs.Duration("timeout", 30*time.Second,
			"how long a request waits on a render, parse or disk scan before answering 503 (the work still finishes and is cached); writing the response is not bounded")
		snapTTL = fs.Duration("snapshot-ttl", 500*time.Millisecond,
			"how long directory scans and run fingerprints are reused before re-statting (negative disables)")
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
