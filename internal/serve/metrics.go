package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics holds the daemon's operational counters, exposed on /metrics
// in Prometheus text exposition format. All fields are safe for
// concurrent use; the handlers update them on every request.
type Metrics struct {
	requests       atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheCoalesced atomic.Int64 // waited on another request's render
	cacheEvictions atomic.Int64
	cacheBytes     atomic.Int64
	parses         atomic.Int64
	parseNanos     atomic.Int64
	renders        atomic.Int64
	renderNanos    atomic.Int64
	skippedLines   atomic.Int64
	scans          atomic.Int64 // registry root-directory scans (ReadDir storms)
	fingerprints   atomic.Int64 // per-run fingerprint stats of a trace directory
	notModified    atomic.Int64 // conditional requests answered 304
	gzipResponses  atomic.Int64 // responses served with Content-Encoding: gzip
	gzipEncodes    atomic.Int64 // gzip variants built, one per gzip-accepting miss

	windowQueries    atomic.Int64 // /events window queries executed (cache misses)
	windowBlocksRead atomic.Int64 // data-file blocks decoded by window queries
	windowFullScans  atomic.Int64 // window queries answered by the full-scan fallback

	timeouts [len(flightKinds)]atomic.Int64 // requests answered 503 at their deadline, by the flight they waited on

	mu        sync.Mutex
	responses map[int]int64 // HTTP status -> count
}

func newMetrics() *Metrics {
	return &Metrics{responses: make(map[int]int64)}
}

func (m *Metrics) observeResponse(code int) {
	m.mu.Lock()
	m.responses[code]++
	m.mu.Unlock()
}

func (m *Metrics) observeParse(d time.Duration, skipped int) {
	m.parses.Add(1)
	m.parseNanos.Add(int64(d))
	m.skippedLines.Add(int64(skipped))
}

func (m *Metrics) observeRender(d time.Duration) {
	m.renders.Add(1)
	m.renderNanos.Add(int64(d))
}

// CacheHits returns how many requests were answered from the cache,
// including those coalesced onto another request's in-flight render.
func (m *Metrics) CacheHits() int64 {
	return m.cacheHits.Load() + m.cacheCoalesced.Load()
}

// CacheMisses returns how many lookups had to render or compress.
func (m *Metrics) CacheMisses() int64 { return m.cacheMisses.Load() }

// RegistryScans returns how many times the registry re-read the served
// root from disk (the O(runs) stat walk the snapshot amortizes).
func (m *Metrics) RegistryScans() int64 { return m.scans.Load() }

// Fingerprints returns how many per-run directory fingerprints were
// computed from disk (vs. reused from the snapshot window).
func (m *Metrics) Fingerprints() int64 { return m.fingerprints.Load() }

// NotModified returns how many conditional requests were answered with
// a body-less 304.
func (m *Metrics) NotModified() int64 { return m.notModified.Load() }

// WindowQueries returns how many windowed trace queries were executed
// (cache hits on /events do not re-query).
func (m *Metrics) WindowQueries() int64 { return m.windowQueries.Load() }

// WindowBlocksRead returns how many trace data blocks windowed queries
// decoded in total - the observable the O(window) load-shape test pins.
func (m *Metrics) WindowBlocksRead() int64 { return m.windowBlocksRead.Load() }

// WindowFullScans returns how many windowed queries fell back to the
// exact full scan because no usable time index was present.
func (m *Metrics) WindowFullScans() int64 { return m.windowFullScans.Load() }

// HitRatio is the fraction of cache lookups served without rendering
// (0 when nothing has been looked up yet).
func (m *Metrics) HitRatio() float64 {
	hits := float64(m.CacheHits())
	total := hits + float64(m.cacheMisses.Load())
	if total == 0 {
		return 0
	}
	return hits / total
}

// WriteTo renders the metrics in Prometheus text exposition format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	emit := func(name, help, typ string, v any) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	emit("actorprofd_requests_total", "HTTP requests received.", "counter", m.requests.Load())
	m.mu.Lock()
	codes := make([]int, 0, len(m.responses))
	for code := range m.responses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	fmt.Fprintf(cw, "# HELP actorprofd_responses_total HTTP responses by status code.\n# TYPE actorprofd_responses_total counter\n")
	for _, code := range codes {
		fmt.Fprintf(cw, "actorprofd_responses_total{code=%q} %d\n", fmt.Sprint(code), m.responses[code])
	}
	m.mu.Unlock()
	emit("actorprofd_cache_hits_total", "Artifact cache hits.", "counter", m.cacheHits.Load())
	emit("actorprofd_cache_coalesced_total", "Requests that waited on another request's in-flight render.", "counter", m.cacheCoalesced.Load())
	emit("actorprofd_cache_misses_total", "Artifact cache misses (renders and gzip variants).", "counter", m.cacheMisses.Load())
	emit("actorprofd_cache_evictions_total", "Artifacts evicted to stay under the byte budget.", "counter", m.cacheEvictions.Load())
	emit("actorprofd_cache_bytes", "Bytes currently held by the artifact cache.", "gauge", m.cacheBytes.Load())
	emit("actorprofd_cache_hit_ratio", "Fraction of cache lookups served without rendering.", "gauge",
		fmt.Sprintf("%.6f", m.HitRatio()))
	emit("actorprofd_parse_total", "Trace directory parses.", "counter", m.parses.Load())
	emit("actorprofd_parse_seconds_total", "Cumulative time spent parsing trace directories.", "counter",
		fmt.Sprintf("%.6f", time.Duration(m.parseNanos.Load()).Seconds()))
	emit("actorprofd_render_total", "Artifact renders.", "counter", m.renders.Load())
	emit("actorprofd_render_seconds_total", "Cumulative time spent rendering artifacts.", "counter",
		fmt.Sprintf("%.6f", time.Duration(m.renderNanos.Load()).Seconds()))
	emit("actorprofd_trace_lines_skipped_total", "Malformed trace lines skipped by the tolerant reader.", "counter", m.skippedLines.Load())
	emit("actorprofd_registry_scans_total", "Root-directory scans (snapshot refreshes).", "counter", m.scans.Load())
	emit("actorprofd_fingerprints_total", "Trace-directory fingerprints computed from disk.", "counter", m.fingerprints.Load())
	emit("actorprofd_not_modified_total", "Conditional requests answered 304 Not Modified.", "counter", m.notModified.Load())
	emit("actorprofd_gzip_responses_total", "Responses served gzip-encoded.", "counter", m.gzipResponses.Load())
	emit("actorprofd_gzip_encodes_total", "Gzip variants built (each a gzip-accepting request's miss).", "counter", m.gzipEncodes.Load())
	emit("actorprofd_window_queries_total", "Windowed trace queries executed (cache misses on /events).", "counter", m.windowQueries.Load())
	emit("actorprofd_window_blocks_read_total", "Trace data blocks decoded by windowed queries.", "counter", m.windowBlocksRead.Load())
	emit("actorprofd_window_full_scans_total", "Windowed queries answered by the full-scan fallback (no usable time index).", "counter", m.windowFullScans.Load())
	fmt.Fprintf(cw, "# HELP actorprofd_request_timeouts_total Requests answered 503 at their deadline, by what they waited on.\n# TYPE actorprofd_request_timeouts_total counter\n")
	for kind, name := range flightKinds {
		fmt.Fprintf(cw, "actorprofd_request_timeouts_total{on=%q} %d\n", name, m.timeouts[kind].Load())
	}
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
