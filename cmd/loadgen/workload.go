package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"actorprof/internal/core"
)

// transport abstracts how a request reaches actorprofd: over real
// sockets (http) or straight into the handler stack (inproc). Inproc
// exercises everything except the kernel - mux, timeout middleware,
// cache, negotiation - and is how one box sustains 10k concurrent
// clients without 10k sockets.
type transport interface {
	// do issues one load request, discarding the body but counting its
	// bytes, and returns the status, byte count, and response ETag.
	do(ctx context.Context, path string, hdr http.Header) (status int, n int64, etag string, err error)
	// fetch issues one control-plane request (target discovery) and
	// returns the body.
	fetch(ctx context.Context, path string) ([]byte, error)
}

// inprocTransport calls the handler directly with a body-discarding
// ResponseWriter.
type inprocTransport struct{ h http.Handler }

// nullWriter is an http.ResponseWriter that counts body bytes instead
// of buffering them (httptest.ResponseRecorder would allocate every
// response body, which at 10k clients is most of the harness's own
// cost).
type nullWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *nullWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}

func (w *nullWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *nullWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += int64(len(p))
	return len(p), nil
}

func (t *inprocTransport) do(ctx context.Context, path string, hdr http.Header) (int, int64, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://loadgen"+path, nil)
	if err != nil {
		return 0, 0, "", err
	}
	if hdr != nil {
		req.Header = hdr
	}
	w := &nullWriter{}
	t.h.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status, w.n, w.Header().Get("ETag"), nil
}

func (t *inprocTransport) fetch(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://loadgen"+path, nil)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// httpTransport drives a running daemon over real sockets.
type httpTransport struct {
	base   string
	client *http.Client
}

func newHTTPTransport(base string, clients int) *httpTransport {
	return &httpTransport{
		base: base,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        clients * 2,
				MaxIdleConnsPerHost: clients * 2,
			},
		},
	}
}

func (t *httpTransport) do(ctx context.Context, path string, hdr http.Header) (int, int64, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return 0, 0, "", err
	}
	if hdr != nil {
		req.Header = hdr
	}
	res, err := t.client.Do(req)
	if err != nil {
		return 0, 0, "", err
	}
	n, err := io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if err != nil {
		return res.StatusCode, n, "", err
	}
	return res.StatusCode, n, res.Header.Get("ETag"), nil
}

func (t *httpTransport) fetch(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return nil, err
	}
	res, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, res.StatusCode, body)
	}
	return body, nil
}

// runListing mirrors the /api/runs response shape loadgen needs.
type runListing struct {
	Runs []struct {
		ID         string   `json:"id"`
		NumPEs     int      `json:"num_pes"`
		PEsPerNode int      `json:"pes_per_node"`
		Features   []string `json:"features"`
	} `json:"runs"`
	Total int `json:"total"`
}

// discoverTargets pages /api/runs and expands every run into its
// servable plot URLs (each available kind in both formats), in a
// deterministic order so zipfian ranks are stable across runs with the
// same seed. It returns the target pool and the run count.
func discoverTargets(ctx context.Context, tr transport) ([]string, int, error) {
	var targets []string
	total, offset := 0, 0
	for {
		body, err := tr.fetch(ctx, fmt.Sprintf("/api/runs?offset=%d&limit=500", offset))
		if err != nil {
			return nil, 0, fmt.Errorf("discovering runs: %w", err)
		}
		var page runListing
		if err := json.Unmarshal(body, &page); err != nil {
			return nil, 0, fmt.Errorf("discovering runs: %w", err)
		}
		total = page.Total
		if len(page.Runs) == 0 {
			break
		}
		for _, run := range page.Runs {
			// The listing names every feature but the multi-node one,
			// which holds as Feature.In reads it off the run's shape.
			lacks := func(f core.Feature) bool {
				if f == core.FeatureMultiNode {
					return run.NumPEs <= run.PEsPerNode
				}
				return !slices.Contains(run.Features, f.Name())
			}
			for _, p := range core.Plots {
				if slices.ContainsFunc(p.Needs, lacks) {
					continue
				}
				for _, format := range []string{"svg", "json"} {
					targets = append(targets, fmt.Sprintf("/runs/%s/plots/%s.%s", run.ID, p.Kind, format))
				}
			}
		}
		offset += len(page.Runs)
		if offset >= total {
			break
		}
	}
	sort.Strings(targets)
	return targets, total, nil
}

// workload is everything the client goroutines share.
type workload struct {
	tr         transport
	targets    []string
	runsTotal  int
	seed       uint64
	zipfS      float64
	scanFrac   float64
	runsFrac   float64
	condFrac   float64
	gzipFrac   float64
	warmupEnd  time.Time
	scanCursor atomic.Int64
}

// clientStats is one client's private accounting, merged after the run.
type clientStats struct {
	all     hist
	classes map[string]*hist
	status  map[int]int64
	errs    map[string]int64
	bytes   int64
}

func newClientStats() *clientStats {
	return &clientStats{
		classes: map[string]*hist{"plot": {}, "scan": {}, "runs": {}},
		status:  map[int]int64{},
		errs:    map[string]int64{},
	}
}

// runClient issues requests until ctx expires. Each client derives its
// own SplitMix64 stream from the base seed and its index, so the whole
// fleet's request sequence is a pure function of (seed, clients,
// targets) - no wall-clock or scheduler nondeterminism in *what* is
// requested, only in interleaving.
func runClient(ctx context.Context, id int, w *workload, st *clientStats) {
	rng := &splitmix64{state: w.seed + uint64(id)}
	z := newZipf(len(w.targets), w.zipfS, rng)
	etags := make(map[string]string)

	for ctx.Err() == nil {
		var class, path string
		switch r := rng.float64(); {
		case r < w.scanFrac:
			// Scan traffic: a shared cursor sweeps every target in order,
			// the adversarial one-shot pattern the cache's admission
			// policy must shrug off.
			class = "scan"
			path = w.targets[int(w.scanCursor.Add(1))%len(w.targets)]
		case r < w.scanFrac+w.runsFrac:
			// Listing traffic: random pages over /api/runs.
			class = "runs"
			path = fmt.Sprintf("/api/runs?offset=%d&limit=50", rng.intn(w.runsTotal+1))
		default:
			// The main mix: zipfian over the plot pool.
			class = "plot"
			path = w.targets[z.draw()]
		}

		var hdr http.Header
		if rng.float64() < w.gzipFrac {
			hdr = http.Header{}
			hdr.Set("Accept-Encoding", "gzip")
		}
		if class == "plot" && rng.float64() < w.condFrac {
			if tag, ok := etags[path]; ok {
				if hdr == nil {
					hdr = http.Header{}
				}
				hdr.Set("If-None-Match", tag)
			}
		}

		start := time.Now()
		status, n, etag, err := w.tr.do(ctx, path, hdr)
		elapsed := time.Since(start)
		if ctx.Err() != nil {
			return // the deadline, not the server, ended this request
		}
		if class == "plot" && etag != "" {
			etags[path] = etag
		}
		if !start.After(w.warmupEnd) {
			continue // started during warmup: excluded from the record
		}
		if err != nil {
			st.errs[errClass(err)]++
			continue
		}
		us := elapsed.Microseconds()
		st.all.record(us)
		st.classes[class].record(us)
		st.status[status]++
		st.bytes += n
	}
}

// errClass buckets transport errors by their terminal cause, so the
// report's error map is a handful of stable keys rather than one entry
// per failed request.
func errClass(err error) string {
	for {
		u := errors.Unwrap(err)
		if u == nil {
			return err.Error()
		}
		err = u
	}
}

// runWorkload spawns the client fleet, waits out warmup+duration, and
// merges every client's accounting into a Report.
func runWorkload(ctx context.Context, w *workload, clients int, duration, warmup time.Duration) Report {
	w.warmupEnd = time.Now().Add(warmup)
	ctx, cancel := context.WithDeadline(ctx, w.warmupEnd.Add(duration))
	defer cancel()

	stats := make([]*clientStats, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		stats[i] = newClientStats()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(ctx, i, w, stats[i])
		}(i)
	}
	wg.Wait()

	var all hist
	classHists := map[string]*hist{"plot": {}, "scan": {}, "runs": {}}
	status := map[string]int64{}
	errs := map[string]int64{}
	var totalErrs, bytes int64
	active := 0
	for _, st := range stats {
		served := st.all.total
		for _, n := range st.errs {
			served += n
		}
		if served > 0 {
			active++
		}
		all.merge(&st.all)
		for class, h := range st.classes {
			classHists[class].merge(h)
		}
		for code, n := range st.status {
			status[strconv.Itoa(code)] += n
		}
		for reason, n := range st.errs {
			errs[reason] += n
			totalErrs += n
		}
		bytes += st.bytes
	}

	classes := map[string]ClassStats{}
	for class, h := range classHists {
		if h.total > 0 {
			classes[class] = ClassStats{Requests: h.total, Latency: h.summary()}
		}
	}
	rps := 0.0
	if duration > 0 {
		rps = float64(all.total+totalErrs) / duration.Seconds()
	}
	return Report{
		Schema: reportSchema,
		Totals: Totals{
			Requests:      all.total + totalErrs,
			Errors:        totalErrs,
			Bytes:         bytes,
			ClientsActive: active,
			ThroughputRPS: rps,
		},
		Status:  status,
		Errors:  errs,
		Latency: all.summary(),
		Classes: classes,
	}
}
