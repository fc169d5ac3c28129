package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// hitWriter is a ResponseWriter that keeps the status and drops the
// body, so a measured request costs only the server's own work.
type hitWriter struct {
	header http.Header
	code   int
}

func (w *hitWriter) Header() http.Header         { return w.header }
func (w *hitWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *hitWriter) WriteHeader(code int)        { w.code = code }

// hitCase is one request on an artifact already in the cache.
type hitCase struct {
	name string
	path string
	hdr  map[string]string
	code int
}

// hitCases warms the cache with the SVG and JSON forms of one plot and
// returns an identity hit, a gzip hit and a revalidation (304) of each.
func hitCases(tb testing.TB, h http.Handler) []hitCase {
	var cases []hitCase
	for _, format := range []string{"svg", "json"} {
		path := "/runs/run1/plots/logical-heatmap." + format
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		etag := rec.Header().Get("ETag")
		if rec.Code != http.StatusOK || etag == "" {
			tb.Fatalf("warming %s: %d, ETag %q", path, rec.Code, etag)
		}
		cases = append(cases,
			hitCase{format + "/identity", path, nil, http.StatusOK},
			hitCase{format + "/gzip", path, map[string]string{"Accept-Encoding": "gzip"}, http.StatusOK},
			hitCase{format + "/304", path, map[string]string{"If-None-Match": etag}, http.StatusNotModified})
	}
	return cases
}

// serveHit returns a function that serves c once through h, reusing one
// request and one writer.
func serveHit(tb testing.TB, h http.Handler, c hitCase) func() {
	r := httptest.NewRequest("GET", c.path, nil)
	for k, v := range c.hdr {
		r.Header.Set(k, v)
	}
	w := &hitWriter{header: make(http.Header, 8)}
	return func() {
		clear(w.header)
		w.code = http.StatusOK
		h.ServeHTTP(w, r)
		if w.code != c.code {
			tb.Fatalf("%s: status %d, want %d", c.name, w.code, c.code)
		}
	}
}

// TestHitPathAllocs pins what a cache hit and a 304 allocate through the
// whole handler, metrics middleware included: no goroutine, no timer, no
// buffered copy of the body.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	srv, _ := newTestServer(t)
	h := srv.Handler()
	budget := map[string]float64{
		"svg/identity": 15, "svg/gzip": 16, "svg/304": 9,
		"json/identity": 15, "json/gzip": 15, "json/304": 9,
	}
	for _, c := range hitCases(t, h) {
		n := testing.AllocsPerRun(200, serveHit(t, h, c))
		t.Logf("%s: %.0f allocs", c.name, n)
		if n > budget[c.name] {
			t.Errorf("%s allocates %.0f times, budget %.0f", c.name, n, budget[c.name])
		}
	}
}

// BenchmarkServeHit serves TestHitPathAllocs' six requests.
func BenchmarkServeHit(b *testing.B) {
	srv, _ := newTestServer(b)
	h := srv.Handler()
	for _, c := range hitCases(b, h) {
		b.Run(c.name, func(b *testing.B) {
			serve := serveHit(b, h, c)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
