// Package serve is actorprofd's engine: an HTTP layer over trace
// directories that parses them through internal/trace (tolerantly, so a
// torn or damaged file costs only its bad records) and serves every
// ActorProf visualization - the heatmaps, violin plots, PAPI bars, and
// overall stacked bars of the paper's figures - as SVG documents and
// JSON payloads, plus the chrome://tracing export.
//
// Rendered artifacts live in a byte-budgeted, scan-resistant segmented
// LRU cache with single-flight de-duplication: concurrent requests for
// the same plot render it once, and one-shot scans cannot evict the
// promoted hot set. Cache keys embed a fingerprint of the trace
// directory's files, so directories re-render exactly when their
// contents change, with no invalidation protocol. The same fingerprint
// doubles as the ETag source, so unchanged artifacts revalidate with a
// body-less 304 without touching the render path, and responses are
// served gzip-encoded when the client accepts it.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"actorprof/internal/core"
	"actorprof/internal/trace"
	"actorprof/internal/viz"
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
	// RequestTimeout bounds how long a request waits on work that can
	// block - a render, a parse, a disk scan - before it answers 503;
	// the work still finishes and is cached. Writing the response is not
	// bounded (default 30s).
	RequestTimeout time.Duration
	// SnapshotTTL is how long the registry reuses its root scan and
	// per-run fingerprints before re-reading disk metadata (default
	// 500ms; negative disables the window so every request re-stats,
	// which tests that rewrite a directory use for immediacy).
	SnapshotTTL time.Duration
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

	s.handler = s.instrument(mux)
	return s, nil
}

// Handler returns the server's HTTP handler: every endpoint, wrapped in
// the metrics middleware. A request runs on its own goroutine and waits
// on any work that can block - a render, a parse, a disk scan - in a
// flight, for at most RequestTimeout (DESIGN.md §9 "Request model").
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

// deadline fixes the instant a request stops waiting on flights:
// RequestTimeout after its handler starts.
func (s *Server) deadline(r *http.Request) deadline {
	return deadline{at: time.Now().Add(s.cfg.RequestTimeout), ctx: r.Context()}
}

// statusError carries an HTTP status with an error message.
type statusError struct {
	code int
	msg  string
}

func (e statusError) Error() string { return e.msg }

func noData(format string, args ...any) error {
	return statusError{code: 404, msg: fmt.Sprintf(format, args...)}
}

// fail writes err as an HTTP error, mapping statusError codes through,
// a timed-out wait to 503 with the body http.TimeoutHandler wrote, and
// everything else to 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var se statusError
	var to timedOut
	if errors.As(err, &to) {
		s.metrics.timeouts[to].Add(1)
		http.Error(w, to.Error(), http.StatusServiceUnavailable)
		return
	}
	if errors.As(err, &se) {
		http.Error(w, se.msg, se.code)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n, err := s.reg.count(s.deadline(r))
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
	infos, total, err := s.reg.listPage(s.deadline(r), offset, limit)
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
// normalized parameters, NUL-joined. No render is needed to compute it,
// so a revalidation of an unchanged artifact costs a fingerprint lookup
// and a hash - not a parse or a render.
func etagFor(key string) string { return etagAfter(nil, key) }

// etagAfter is etagFor of an input whose start is already hashed into
// the SHA-256 state prefix (nil: nothing) and whose rest is rest: a
// request resumes its run's dirPrint.tag and hashes only its artifact's
// name and parameters, not the whole directory listing.
func etagAfter(prefix []byte, rest string) string {
	h := sha256.New()
	if prefix != nil {
		h.(encoding.BinaryUnmarshaler).UnmarshalBinary(prefix)
	}
	io.WriteString(h, rest)
	var sum [sha256.Size]byte
	var tag [24]byte
	hex.Encode(tag[:], h.Sum(sum[:0])[:12])
	return string(tag[:])
}

// acceptsGzip reports whether the request's Accept-Encoding allows a
// gzip response: an explicit gzip entry decides, and * applies only when
// gzip is not listed. Either refuses at q=0.
func acceptsGzip(r *http.Request) bool {
	star := false
	for rest := r.Header.Get("Accept-Encoding"); rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		token, q, _ := strings.Cut(strings.TrimSpace(part), ";")
		allowed := true
		if qv, hasQ := strings.CutPrefix(strings.TrimSpace(q), "q="); hasQ {
			f, err := strconv.ParseFloat(strings.TrimSpace(qv), 64)
			allowed = err != nil || f != 0
		}
		switch strings.TrimSpace(token) {
		case "gzip":
			return allowed
		case "*":
			star = allowed
		}
	}
	return star
}

// etagMatches reports whether any member of an If-None-Match header
// matches the artifact's validator base, in either its identity or its
// gzip-variant form ("<base>" / "<base>-gz"), or is the wildcard. It
// returns the matched tag so the 304 can echo the representation the
// client actually holds.
func etagMatches(inm, base string) (string, bool) {
	for rest := inm; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
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

// Header values many responses share, assigned to canonical keys
// without Header.Set's canonicalization; nothing writes into them.
var (
	varyAcceptEncoding = []string{"Accept-Encoding"}
	gzipEncoding       = []string{"gzip"}
)

// writeNegotiated writes res - an identity entry, or the gzip variant
// entry a gzip-accepting request fetched - honoring the request method
// (HEAD gets headers and Content-Length but no body) and, when etagBase
// is non-empty, attaching the representation's ETag. Vary:
// Accept-Encoding is always set on compressible endpoints so caches key
// correctly.
func (s *Server) writeNegotiated(w http.ResponseWriter, r *http.Request, res renderResult, etagBase string) {
	data := res.data
	h := w.Header()
	h["Vary"] = varyAcceptEncoding
	h["Content-Type"] = []string{res.contentType}
	etag := etagBase
	if res.gz != nil {
		data = res.gz
		h["Content-Encoding"] = gzipEncoding
		s.metrics.gzipResponses.Add(1)
		if etag != "" {
			etag += "-gz"
		}
	}
	if etag != "" {
		h["Etag"] = []string{`"` + etag + `"`}
	}
	h["Content-Length"] = []string{strconv.Itoa(len(data))}
	if r.Method == http.MethodHead {
		return
	}
	w.Write(data)
}

// gzipKey prefixes an identity key to key its gzip variant: no identity
// key starts with a NUL byte, since a run ID is a directory name.
const gzipKey = "\x00"

// serveArtifact is the one pipeline behind every cached endpoint. The
// cache key and the ETag derive from the same parts - the run, its
// directory fingerprint, the artifact name and the normalized
// parameters (none for an artifact that takes none) - so an
// If-None-Match hit short-circuits to a body-less 304 before the cache
// is even consulted; otherwise the artifact is fetched or rendered
// (single-flight, timed) and written with content negotiation. Each
// encoding is its own entry, made when a request asks for it: a client
// that never accepts gzip never pays for compression, and a gzip miss
// admits only its own variant. An endpoint supplies only its normalized
// parameters and a render that writes the bytes into a scratch buffer
// and returns their type; the cache keeps an exact-size copy.
func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, d deadline, run resolvedRun, name string, norm []string,
	render func(buf *bytes.Buffer) (contentType string, err error)) {
	rest := name
	for _, p := range norm {
		rest += "\x00" + p
	}
	etagBase := etagAfter(run.fp.tag, rest)
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if matched, ok := etagMatches(inm, etagBase); ok {
			h := w.Header()
			h["Vary"] = varyAcceptEncoding
			h["Etag"] = []string{matched}
			w.WriteHeader(http.StatusNotModified)
			s.metrics.notModified.Add(1)
			return
		}
	}
	prefix := ""
	if acceptsGzip(r) {
		prefix = gzipKey
	}
	key := prefix + run.id + "\x00" + run.fp.key + "\x00" + rest
	res, err := s.cache.get(key, d, func() (renderResult, error) {
		if prefix == "" {
			return s.renderIdentity(render)
		}
		// Compress the identity entry if an identity client had it
		// rendered; else render the bytes for this entry alone.
		id, ok := s.cache.peek(key[len(prefix):])
		if !ok {
			var err error
			if id, err = s.renderIdentity(render); err != nil {
				return renderResult{}, err
			}
		}
		s.metrics.gzipEncodes.Add(1)
		if v := withGzip(id); v.gz != nil {
			return renderResult{gz: v.gz, contentType: id.contentType}, nil
		}
		return id, nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeNegotiated(w, r, res, etagBase)
}

// renderIdentity runs an artifact's render into a scratch buffer and
// returns an identity entry holding an exact-size copy of its bytes.
func (s *Server) renderIdentity(render func(buf *bytes.Buffer) (string, error)) (renderResult, error) {
	start := time.Now()
	defer func() { s.metrics.observeRender(time.Since(start)) }()
	buf := scratchBuffers.Get().(*bytes.Buffer)
	defer scratchBuffers.Put(buf)
	buf.Reset()
	contentType, err := render(buf)
	if err != nil {
		return renderResult{}, err
	}
	return renderResult{data: exactCopy(buf.Bytes()), contentType: contentType}, nil
}

// handlePlot serves /runs/{run}/plots/{kind}.{svg|json}, the daemon's
// main endpoint: the catalog's plot, drawn as SVG or written in its own
// JSON form.
func (s *Server) handlePlot(w http.ResponseWriter, r *http.Request) {
	runID := r.PathValue("run")
	name := r.PathValue("plot")
	spec, format, ok := splitPlotName(name)
	if !ok {
		s.fail(w, statusError{code: 404, msg: fmt.Sprintf(
			"unknown plot %q; plots are <kind>.svg or <kind>.json with kind one of: %s",
			name, strings.Join(artifactNames(), ", "))})
		return
	}
	// Only plot kinds that consume ?event= key on it: anything else
	// would let one URL template mint unbounded distinct cache entries
	// for identical bytes (TestIrrelevantParamSharesCacheEntry).
	param := ""
	if spec.UsesEvent {
		param = r.URL.Query().Get("event")
	}

	d := s.deadline(r)
	v, run, err := s.reg.summary(d, runID)
	if err != nil {
		s.fail(w, err)
		return
	}
	sum := v.sum
	if f, lacks := spec.Missing(sum); lacks {
		s.fail(w, statusError{code: 404, msg: f.Absent()})
		return
	}
	s.serveArtifact(w, r, d, run, name, []string{param}, func(buf *bytes.Buffer) (string, error) {
		ev, err := spec.Event(sum, param)
		if err != nil {
			code := 400
			if errors.Is(err, core.ErrNotRecorded) {
				code = 404
			}
			return "", statusError{code: code, msg: err.Error()}
		}
		p := spec.Build(sum, ev)
		if format == "svg" {
			return "image/svg+xml", viz.RenderSVGTo(p, buf)
		}
		return "application/json", writeJSON(buf, p)
	})
}

// writeJSON writes v to buf byte for byte as json.Marshal encodes it,
// without Marshal's copy of the result.
func writeJSON(buf *bytes.Buffer, v any) error {
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1) // Encode ends the value with a newline
	return nil
}

func splitPlotName(name string) (spec core.PlotSpec, format string, ok bool) {
	dot := strings.LastIndexByte(name, '.')
	if dot < 0 {
		return spec, "", false
	}
	format = name[dot+1:]
	if format != "svg" && format != "json" {
		return spec, "", false
	}
	spec, ok = core.PlotOf(name[:dot])
	return spec, format, ok
}

// plotsByKind is the plot catalog in URL order, for error messages and
// the index page.
var plotsByKind = func() []core.PlotSpec {
	ps := slices.Clone(core.Plots)
	slices.SortFunc(ps, func(a, b core.PlotSpec) int { return strings.Compare(a.Kind, b.Kind) })
	return ps
}()

func artifactNames() []string {
	names := make([]string, len(plotsByKind))
	for i, p := range plotsByKind {
		names[i] = p.Kind
	}
	return names
}

// handlePerfetto serves the physical trace as Google Trace Event JSON in
// the full Perfetto / chrome://tracing model: duration pairs per handler
// slot, backlog counters, and process/thread metadata. It walks
// individual physical records, which are read inside the render - so a
// revalidation or a cache hit reads nothing.
func (s *Server) handlePerfetto(w http.ResponseWriter, r *http.Request) {
	runID := r.PathValue("run")
	d := s.deadline(r)
	run, err := s.reg.resolve(d, runID)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.serveArtifact(w, r, d, run, "perfetto", nil, func(buf *bytes.Buffer) (string, error) {
		set, err := s.reg.physical(deadline{}, run)
		if err != nil {
			return "", err
		}
		if !set.Config.Physical {
			return "", noData("run has no physical trace; nothing to export")
		}
		return "application/json", set.ExportPerfetto(buf)
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
	d := s.deadline(r)
	run, err := s.reg.resolve(d, runID)
	if err != nil {
		s.fail(w, err)
		return
	}
	norm := fmt.Sprintf("%d\x01%d\x01%d\x01%d", q.T0, q.T1, q.LOD, q.MaxEvents)
	s.serveArtifact(w, r, d, run, "events", []string{norm}, func(buf *bytes.Buffer) (string, error) {
		res, err := s.reg.queryWindow(deadline{}, run, q)
		if err != nil {
			return "", err
		}
		s.metrics.windowQueries.Add(1)
		s.metrics.windowBlocksRead.Add(int64(res.BlocksRead))
		if res.FullScan {
			s.metrics.windowFullScans.Add(1)
		}
		buf.Write(res.AppendJSON(buf.AvailableBuffer()))
		return "application/json", nil
	})
}

// handleIndex renders a minimal HTML directory of runs and plot links.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	infos, total, err := s.reg.listPage(s.deadline(r), 0, indexRunsLimit)
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
		// The ID goes into every link as one escaped path segment: a run
		// directory may be named a"b or x?y#z.
		id := htmlEscape(url.PathEscape(info.ID))
		fmt.Fprintf(&b, "<h2>%s</h2><ul>\n", htmlEscape(info.ID))
		if info.sum != nil {
			for _, p := range plotsByKind {
				if _, lacks := p.Missing(info.sum); !lacks {
					fmt.Fprintf(&b, `<li><a href="/runs/%s/plots/%s.svg">%s.svg</a> | <a href="/runs/%s/plots/%s.json">json</a></li>`+"\n",
						id, p.Kind, p.Kind, id, p.Kind)
				}
			}
			if core.FeaturePhysical.In(info.sum) {
				fmt.Fprintf(&b, `<li><a href="/runs/%s/trace.perfetto.json">trace.perfetto.json</a> (Perfetto / chrome://tracing)</li>`+"\n", id)
				fmt.Fprintf(&b, `<li><a href="/runs/%s/events?lod=1">events?t0=&amp;t1=&amp;lod=</a> (windowed query)</li>`+"\n", id)
			}
		}
		if info.schedule {
			fmt.Fprintf(&b, `<li><a href="/runs/%s/whatif">whatif</a> (causal projection; ?scale_network=&amp;plot=compare|bottleneck&amp;format=svg)</li>`+"\n", id)
		}
		b.WriteString("</ul>\n")
	}
	if total > len(infos) {
		fmt.Fprintf(&b, "<p>...and %d more runs; page them via /api/runs?offset=&amp;limit=.</p>\n", total-len(infos))
	}
	fmt.Fprint(w, b.String())
}

var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func htmlEscape(s string) string { return htmlEscaper.Replace(s) }
