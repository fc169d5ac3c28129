// Package serve is actorprofd's engine: an HTTP layer over trace
// directories that parses them through internal/trace (tolerantly, so a
// directory a streaming collector is still writing into can be watched
// live) and serves every ActorProf visualization - the heatmaps, violin
// plots, PAPI bars, and overall stacked bars of the paper's figures - as
// SVG documents and JSON payloads, plus the chrome://tracing export.
//
// Rendered artifacts live in a byte-budgeted, scan-resistant segmented
// LRU cache with single-flight de-duplication: concurrent requests for
// the same plot render it once, and one-shot scans cannot evict the
// promoted hot set. Cache keys embed a fingerprint of the trace
// directory's files, so live directories re-render exactly when their
// contents change, with no invalidation protocol. The same fingerprint
// doubles as the ETag source, so unchanged artifacts revalidate with a
// body-less 304 without touching the render path, and responses are
// served gzip-encoded when the client accepts it.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"actorprof/internal/trace"
	"actorprof/internal/viz"
	"actorprof/internal/whatif"
)

// Config configures a Server.
type Config struct {
	// Root is the directory to serve: either itself a trace directory or
	// a directory whose children are trace directories. Required.
	Root string
	// CacheBytes budgets the rendered-artifact cache (default 64 MiB).
	CacheBytes int64
	// ParseConcurrency bounds how many trace directories parse at once
	// (default 2; parses are the memory-hungry operation).
	ParseConcurrency int
	// RequestTimeout bounds each request end to end (default 30s).
	RequestTimeout time.Duration
	// SnapshotTTL is how long the registry reuses its root scan and
	// per-run fingerprints before re-reading disk metadata (default
	// 500ms; negative disables the window so every request re-stats,
	// which live-ingestion tests use for immediacy).
	SnapshotTTL time.Duration
	// GzipMinBytes is the smallest artifact worth gzip-encoding
	// (default 860; non-positive keeps the default, use a huge value to
	// effectively disable compression).
	GzipMinBytes int
}

// defaultRunsLimit bounds how many runs one /api/runs response returns
// when the client does not pass ?limit=: over thousands of runs an
// unpaginated listing would parse every directory and buffer an
// unbounded JSON document per request.
const defaultRunsLimit = 1000

// indexRunsLimit bounds the HTML index the same way.
const indexRunsLimit = 200

// Server serves trace directories over HTTP. Create one with New and
// mount Handler on an http.Server.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *cache
	reg     *registry
	handler http.Handler
}

// New validates cfg and builds the server.
func New(cfg Config) (*Server, error) {
	fi, err := os.Stat(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("serve: root: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("serve: root %s is not a directory", cfg.Root)
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.ParseConcurrency <= 0 {
		cfg.ParseConcurrency = 2
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.SnapshotTTL == 0 {
		cfg.SnapshotTTL = 500 * time.Millisecond
	}
	if cfg.GzipMinBytes <= 0 {
		cfg.GzipMinBytes = 860
	}
	ttl := cfg.SnapshotTTL
	if ttl < 0 {
		ttl = 0 // registry treats <= 0 as "no snapshot window"
	}
	m := newMetrics()
	s := &Server{
		cfg:     cfg,
		metrics: m,
		cache:   newCache(cfg.CacheBytes, m),
		reg:     newRegistry(cfg.Root, cfg.ParseConcurrency, ttl, m),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/runs", s.handleRuns)
	mux.HandleFunc("GET /runs/{run}/plots/{plot}", s.handlePlot)
	mux.HandleFunc("GET /runs/{run}/trace.perfetto.json", s.handlePerfetto)
	mux.HandleFunc("GET /runs/{run}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{run}/whatif", s.handleWhatIf)
	mux.HandleFunc("GET /{$}", s.handleIndex)

	var h http.Handler = http.TimeoutHandler(mux, cfg.RequestTimeout, "request timed out\n")
	s.handler = s.instrument(h)
	return s, nil
}

// Handler returns the server's HTTP handler: every endpoint, wrapped in
// the per-request timeout and the metrics middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the server's counters (the /metrics data).
func (s *Server) Metrics() *Metrics { return s.metrics }

// instrument counts requests and response codes around next.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.metrics.observeResponse(rec.code)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// fail writes err as an HTTP error, mapping statusError codes through
// and everything else to 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var se statusError
	if errors.As(err, &se) {
		http.Error(w, se.msg, se.code)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n, err := s.reg.count()
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","runs":%d}`+"\n", n)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w)
}

// pageParam parses one ?offset=/?limit= value. An absent value returns
// def; anything non-numeric, negative, or absurdly large is a 400 -
// never a panic or a 500 (FuzzRunsPagination pins this).
func pageParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, statusError{code: 400, msg: fmt.Sprintf("%s must be a non-negative integer, got %q", name, raw)}
	}
	return v, nil
}

// handleRuns serves the run listing as JSON, paginated over the stable
// lexicographic run-ID order: ?offset= and ?limit= select the window,
// "total" carries the full count so clients can page over thousands of
// runs without the server parsing (or buffering) all of them at once.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	offset, err := pageParam(r, "offset", 0)
	if err != nil {
		s.fail(w, err)
		return
	}
	limit, err := pageParam(r, "limit", defaultRunsLimit)
	if err != nil {
		s.fail(w, err)
		return
	}
	infos, total, err := s.reg.listPage(offset, limit)
	if err != nil {
		s.fail(w, err)
		return
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]any{
		"runs":   infos,
		"total":  total,
		"offset": offset,
		"limit":  limit,
	})
	s.writeNegotiated(w, r, renderResult{data: buf.Bytes(), contentType: "application/json"}, "")
}

// etagFor derives the strong validator for an artifact from its cache
// identity: the run, the registry fingerprint (which changes whenever
// any file in the trace directory does), the artifact name, and the
// normalized parameter. No render is needed to compute it, so a
// revalidation of an unchanged artifact costs a fingerprint lookup and
// a hash - not a parse or a render.
func etagFor(parts ...string) string {
	h := sha256.Sum256([]byte(strings.Join(parts, "\x00")))
	return hex.EncodeToString(h[:12])
}

// acceptsGzip reports whether the request's Accept-Encoding allows a
// gzip response.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		token, q, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if t := strings.TrimSpace(token); t != "gzip" && t != "*" {
			continue
		}
		if hasQ {
			if qv, ok := strings.CutPrefix(strings.TrimSpace(q), "q="); ok {
				if f, err := strconv.ParseFloat(strings.TrimSpace(qv), 64); err == nil && f == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

// etagMatches reports whether any member of an If-None-Match header
// matches the artifact's validator base, in either its identity or its
// gzip-variant form ("<base>" / "<base>-gz"), or is the wildcard. It
// returns the matched tag so the 304 can echo the representation the
// client actually holds.
func etagMatches(inm, base string) (string, bool) {
	for _, part := range strings.Split(inm, ",") {
		tag := strings.TrimSpace(part)
		if tag == "*" {
			return `"` + base + `"`, true
		}
		val := strings.TrimPrefix(tag, "W/")
		val = strings.Trim(val, `"`)
		if val == base || val == base+"-gz" {
			return tag, true
		}
	}
	return "", false
}

// writeNegotiated writes res honoring Accept-Encoding, the request
// method (HEAD gets headers and Content-Length but no body), and - when
// etagBase is non-empty - attaches the representation's ETag. The
// gzip variant is only used when it was rendered (res.gz non-nil) and
// the client accepts it; Vary: Accept-Encoding is always set on
// compressible endpoints so caches key correctly.
func (s *Server) writeNegotiated(w http.ResponseWriter, r *http.Request, res renderResult, etagBase string) {
	data := res.data
	h := w.Header()
	h.Set("Vary", "Accept-Encoding")
	h.Set("Content-Type", res.contentType)
	etag := etagBase
	if res.gz != nil && acceptsGzip(r) {
		data = res.gz
		h.Set("Content-Encoding", "gzip")
		s.metrics.gzipResponses.Add(1)
		if etag != "" {
			etag += "-gz"
		}
	}
	if etag != "" {
		h.Set("ETag", `"`+etag+`"`)
	}
	h.Set("Content-Length", strconv.Itoa(len(data)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(data)
}

// serveArtifact is the one pipeline behind every cached endpoint. The
// cache key and the ETag derive from the same parts - the run, its
// directory fingerprint, the artifact name and the normalized
// parameters (none for an artifact that takes none) - so an
// If-None-Match hit short-circuits to a body-less 304 before the cache
// is even consulted; otherwise the artifact is fetched or rendered
// (single-flight, timed, gzip-encoded once when worth it) and written
// with content negotiation. An endpoint supplies only its normalized
// parameters and a render that returns bytes and their type.
func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, runID, fp, name string, norm []string,
	render func() (data []byte, contentType string, err error)) {
	parts := append([]string{runID, fp, name}, norm...)
	etagBase := etagFor(parts...)
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if matched, ok := etagMatches(inm, etagBase); ok {
			h := w.Header()
			h.Set("Vary", "Accept-Encoding")
			h.Set("ETag", matched)
			w.WriteHeader(http.StatusNotModified)
			s.metrics.notModified.Add(1)
			return
		}
	}
	res, err := s.cache.getOrRender(strings.Join(parts, "\x00"), func() (renderResult, error) {
		start := time.Now()
		defer func() { s.metrics.observeRender(time.Since(start)) }()
		data, contentType, err := render()
		if err != nil {
			return renderResult{}, err
		}
		return withGzip(renderResult{data: data, contentType: contentType}, s.cfg.GzipMinBytes), nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeNegotiated(w, r, res, etagBase)
}

// handlePlot serves /runs/{run}/plots/{kind}.{svg|json}, the daemon's
// main endpoint.
func (s *Server) handlePlot(w http.ResponseWriter, r *http.Request) {
	runID := r.PathValue("run")
	name := r.PathValue("plot")
	kind, format, ok := splitPlotName(name)
	if !ok {
		s.fail(w, statusError{code: 404, msg: fmt.Sprintf(
			"unknown plot %q; plots are <kind>.svg or <kind>.json with kind one of: %s",
			name, strings.Join(artifactNames(), ", "))})
		return
	}
	art := artifacts[kind]
	// Only plot kinds that consume ?event= key on it: anything else
	// would let one URL template mint unbounded distinct cache entries
	// for identical bytes (TestIrrelevantParamSharesCacheEntry).
	param := ""
	if art.UsesEvent {
		param = r.URL.Query().Get("event")
	}

	sum, fp, _, err := s.reg.load(runID)
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := art.check(sum); err != nil {
		s.fail(w, err)
		return
	}
	s.serveArtifact(w, r, runID, fp, name, []string{param}, func() ([]byte, string, error) {
		if format == "svg" {
			p, err := art.plot(sum, param)
			if err != nil {
				return nil, "", err
			}
			var buf bytes.Buffer
			err = viz.RenderSVGTo(p, &buf)
			return buf.Bytes(), "image/svg+xml", err
		}
		v, err := art.json(sum, param)
		if err != nil {
			return nil, "", err
		}
		data, err := json.Marshal(v)
		return data, "application/json", err
	})
}

func splitPlotName(name string) (kind, format string, ok bool) {
	dot := strings.LastIndexByte(name, '.')
	if dot < 0 {
		return "", "", false
	}
	kind, format = name[:dot], name[dot+1:]
	if format != "svg" && format != "json" {
		return "", "", false
	}
	_, known := artifacts[kind]
	return kind, format, known
}

// handlePerfetto serves the physical trace as Google Trace Event JSON in
// the full Perfetto / chrome://tracing model: duration pairs per handler
// slot, backlog counters, and process/thread metadata. It walks
// individual physical records, which are read inside the render - so a
// revalidation or a cache hit reads nothing.
func (s *Server) handlePerfetto(w http.ResponseWriter, r *http.Request) {
	runID := r.PathValue("run")
	fp, err := s.reg.fingerprintFor(runID)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.serveArtifact(w, r, runID, fp, "perfetto", nil, func() ([]byte, string, error) {
		set, err := s.reg.physical(runID)
		if err != nil {
			return nil, "", err
		}
		if !set.Config.Physical {
			return nil, "", noData("run has no physical trace; nothing to export")
		}
		var buf bytes.Buffer
		err = set.ExportPerfetto(&buf)
		return buf.Bytes(), "application/json", err
	})
}

// serverMaxEvents caps how many raw events one /events response carries
// regardless of the client's ?max_events=; the Truncated flag reports
// the cut. Zoomed-out navigation should use ?lod= instead.
const serverMaxEvents = 50000

// maxLOD bounds the ?lod= parameter for cache keying; the query engine
// clamps to the pyramid's actual depth (at most 64 levels) anyway.
const maxLOD = 64

// int64Param parses one optional signed integer query parameter.
// Anything non-numeric is a 400, never a 500 (FuzzWindowParams pins
// this).
func int64Param(r *http.Request, name string, def int64) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, statusError{code: 400, msg: fmt.Sprintf("%s must be an integer, got %q", name, raw)}
	}
	return v, nil
}

// windowParams parses and normalizes the /events query parameters into
// a trace.Window. Absent bounds mean the full trace span (the engine
// clamps the sentinels to the data). Normalization happens here - before
// cache keying - so equivalent requests ("?lod=02", "?lod=2&junk=")
// share one cache entry and one ETag.
func windowParams(r *http.Request) (trace.Window, error) {
	t0, err := int64Param(r, "t0", math.MinInt64)
	if err != nil {
		return trace.Window{}, err
	}
	t1, err := int64Param(r, "t1", math.MaxInt64)
	if err != nil {
		return trace.Window{}, err
	}
	lod, err := pageParam(r, "lod", 0)
	if err != nil {
		return trace.Window{}, err
	}
	if lod > maxLOD {
		lod = maxLOD
	}
	maxEvents, err := pageParam(r, "max_events", serverMaxEvents)
	if err != nil {
		return trace.Window{}, err
	}
	if maxEvents == 0 || maxEvents > serverMaxEvents {
		maxEvents = serverMaxEvents
	}
	if lod >= 1 {
		maxEvents = serverMaxEvents // irrelevant at LOD >= 1: do not mint extra cache keys
	}
	return trace.Window{T0: t0, T1: t1, LOD: lod, MaxEvents: maxEvents}, nil
}

// handleEvents answers windowed trace queries: ?t0= and ?t1= bound the
// half-open window in the trace's clock domain, ?lod= selects raw
// events (0) or a pyramid level (>= 1), ?max_events= caps the event
// payload. With a time index present the query reads only the data
// blocks the window intersects - O(window), not O(trace) - so panning
// and zooming over a huge trace stays cheap; the response's blocks_read
// and total_blocks fields expose exactly how much was touched.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	runID := r.PathValue("run")
	q, err := windowParams(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	fp, err := s.reg.fingerprintFor(runID)
	if err != nil {
		s.fail(w, err)
		return
	}
	norm := fmt.Sprintf("%d\x01%d\x01%d\x01%d", q.T0, q.T1, q.LOD, q.MaxEvents)
	s.serveArtifact(w, r, runID, fp, "events", []string{norm}, func() ([]byte, string, error) {
		res, err := s.reg.queryWindow(runID, q)
		if err != nil {
			return nil, "", err
		}
		s.metrics.windowQueries.Add(1)
		s.metrics.windowBlocksRead.Add(int64(res.BlocksRead))
		if res.FullScan {
			s.metrics.windowFullScans.Add(1)
		}
		data, err := json.Marshal(res)
		return data, "application/json", err
	})
}

// handleIndex renders a minimal HTML directory of runs and plot links.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	infos, total, err := s.reg.listPage(0, indexRunsLimit)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<!doctype html><title>actorprofd</title><h1>actorprofd</h1>\n")
	if len(infos) == 0 {
		b.WriteString("<p>No trace directories found under the served root.</p>\n")
	}
	for _, info := range infos {
		fmt.Fprintf(&b, "<h2>%s</h2><ul>\n", htmlEscape(info.ID))
		if info.Live {
			b.WriteString("<li><em>live: run still streaming</em></li>\n")
		}
		for _, kind := range artifactNames() {
			if artifacts[kind].check(sourceStub(info)) != nil {
				continue
			}
			fmt.Fprintf(&b, `<li><a href="/runs/%s/plots/%s.svg">%s.svg</a> | <a href="/runs/%s/plots/%s.json">json</a></li>`+"\n",
				info.ID, kind, kind, info.ID, kind)
		}
		for _, f := range info.Features {
			if f == "physical" {
				fmt.Fprintf(&b, `<li><a href="/runs/%s/trace.perfetto.json">trace.perfetto.json</a> (Perfetto / chrome://tracing)</li>`+"\n", info.ID)
				fmt.Fprintf(&b, `<li><a href="/runs/%s/events?lod=1">events?t0=&amp;t1=&amp;lod=</a> (windowed query)</li>`+"\n", info.ID)
			}
		}
		if whatif.HasSchedule(info.Dir) {
			fmt.Fprintf(&b, `<li><a href="/runs/%s/whatif">whatif</a> (causal projection; ?scale_network=&amp;plot=compare|bottleneck&amp;format=svg)</li>`+"\n", info.ID)
		}
		b.WriteString("</ul>\n")
	}
	if total > len(infos) {
		fmt.Fprintf(&b, "<p>...and %d more runs; page them via /api/runs?offset=&amp;limit=.</p>\n", total-len(infos))
	}
	fmt.Fprint(w, b.String())
}

// sourceStub rebuilds just enough of a trace source from a RunInfo for
// the artifact availability checks (which only consult the config and
// the PE counts).
func sourceStub(info RunInfo) trace.Source {
	s := &trace.Summary{NumPEs: info.NumPEs, PEsPerNode: info.PEsPerNode}
	for _, f := range info.Features {
		switch f {
		case "logical":
			s.Config.Logical = true
		case "physical":
			s.Config.Physical = true
		case "overall":
			s.Config.Overall = true
		case "papi":
			s.Config.PAPIEvents = append(s.Config.PAPIEvents, 0)
		}
	}
	return s
}

func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
