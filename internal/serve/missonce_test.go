package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"actorprof/internal/whatif"
)

// TestWhatIfIrrelevantParamsShareCacheEntry: a what-if parameter that
// cannot change the bytes - actor= without speedup=, a scale of 1 next
// to an unset one - mints no cache entry and no ETag of its own.
func TestWhatIfIrrelevantParamsShareCacheEntry(t *testing.T) {
	root := t.TempDir()
	writeCapturedRun(t, root, "cap")
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	groups := [][]string{
		{"", "?actor=5", "?scale_network=1", "?scale_network=1&scale_quiet=1&actor=3"},
		{"?plot=compare&format=svg", "?plot=compare&format=svg&scale_local=1&scale_ingest=1", "?actor=0&plot=compare&format=svg"},
	}
	for _, group := range groups {
		var first *http.Response
		var firstBody string
		for _, q := range group {
			res, body := get(t, h, "/runs/cap/whatif"+q)
			if res.StatusCode != http.StatusOK {
				t.Fatalf("whatif%s: %d %s", q, res.StatusCode, body)
			}
			if first == nil {
				first, firstBody = res, body
				continue
			}
			if body != firstBody || res.Header.Get("ETag") != first.Header.Get("ETag") {
				t.Errorf("whatif%s: bytes or ETag %s differ from whatif%s's %s", q, res.Header.Get("ETag"), group[0], first.Header.Get("ETag"))
			}
		}
	}
	if misses := srv.Metrics().CacheMisses(); misses != int64(len(groups)) {
		t.Errorf("cache misses = %d, want %d (one per distinct response)", misses, len(groups))
	}
}

// TestGzipEncodedOnlyOnRequest: identity-only traffic never compresses
// and the cache charges the identity bytes alone; concurrent gzip
// requests for the artifact compress it once, into an entry of its own;
// a gzip-only artifact is cached as its gzip bytes alone.
func TestGzipEncodedOnlyOnRequest(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	m := srv.Metrics()
	const path = "/runs/run1/plots/logical-heatmap.svg"
	var identity string
	for i := 0; i < 3; i++ {
		_, identity = get(t, h, path)
	}
	if _, body := get(t, h, "/metrics"); !strings.Contains(body, "actorprofd_gzip_encodes_total 0\n") {
		t.Errorf("identity-only traffic: /metrics has no zero actorprofd_gzip_encodes_total:\n%s", body)
	}
	if b := m.cacheBytes.Load(); b != int64(len(identity)) {
		t.Errorf("identity-only traffic: the cache holds %d bytes, the artifact is %d", b, len(identity))
	}

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("GET", path, nil)
			req.Header.Set("Accept-Encoding", "gzip")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if enc := rec.Header().Get("Content-Encoding"); rec.Code != http.StatusOK || enc != "gzip" {
				t.Errorf("gzip request %d: %d, Content-Encoding %q", i, rec.Code, enc)
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i, body := range bodies {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("gzip request %d: %v", i, err)
		}
		if plain, err := io.ReadAll(zr); err != nil || string(plain) != identity {
			t.Errorf("gzip request %d does not decode to the identity bytes (%v)", i, err)
		}
	}
	if _, body := get(t, h, "/metrics"); !strings.Contains(body, "actorprofd_gzip_encodes_total 1\n") ||
		!strings.Contains(body, fmt.Sprintf("actorprofd_gzip_responses_total %d\n", n)) {
		t.Errorf("%d gzip requests for one artifact: want 1 encode and %d gzip responses:\n%s", n, n, body)
	}
	if b := m.cacheBytes.Load(); b != int64(len(identity)+len(bodies[0])) || srv.cache.len() != 2 {
		t.Errorf("the cache holds %d entries of %d bytes, want the identity (%d) and gzip (%d) entries",
			srv.cache.len(), b, len(identity), len(bodies[0]))
	}
	// A gzip miss on an artifact no identity client asked for admits
	// its gzip variant alone.
	before := m.cacheBytes.Load()
	res, body := getH(t, h, "GET", "/runs/run1/plots/logical-violin.svg", map[string]string{"Accept-Encoding": "gzip"})
	if res.Header.Get("Content-Encoding") != "gzip" || m.cacheBytes.Load()-before != int64(len(body)) || srv.cache.len() != 3 {
		t.Errorf("a gzip-only miss grew the cache by %d bytes to %d entries, want its %d gzip bytes in a third",
			m.cacheBytes.Load()-before, srv.cache.len(), len(body))
	}
}

// TestConcurrentWhatIfSharesBaseline: concurrent what-if requests with
// different perturbations on one run share one load of its schedule -
// one counted parse, which is also the one baseline projection - and
// no report or plot builder writes to the shared baseline Analysis
// (under -race, a write racing the other renders' reads fails too).
func TestConcurrentWhatIfSharesBaseline(t *testing.T) {
	root := t.TempDir()
	writeCapturedRun(t, root, "cap")
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	queries := []string{"", "scale_network=2", "scale_network=0.5&plot=compare", "scale_local=3&plot=compare&format=svg",
		"scale_quiet=2&plot=bottleneck", "scale_instr=0.5&plot=bottleneck&format=svg", "scale_ingest=2&plot=compare",
		"scale_network=4&scale_quiet=0.25"}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/cap/whatif?"+q, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("whatif?%s: %d %s", q, rec.Code, rec.Body)
				}
			}(q)
		}
	}
	wg.Wait()
	if p := srv.Metrics().parses.Load(); p != 1 {
		t.Errorf("%d concurrent what-ifs on one run cost %d schedule loads, want 1", 2*len(queries), p)
	}

	run, err := srv.reg.resolve(deadline{}, "cap")
	if err != nil {
		t.Fatal(err)
	}
	base, err := srv.reg.baselineFor(deadline{}, run)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := base.Compare(whatif.Identity(base.Schedule()))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := whatif.ReadScheduleFile(filepath.Join(root, "cap"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := whatif.Compare(sched, whatif.Identity(sched))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(shared.Baseline)
	want, _ := json.Marshal(fresh.Baseline)
	if !bytes.Equal(got, want) {
		t.Errorf("the shared baseline changed under the renders:\n%s\nwant\n%s", got, want)
	}
}

// BenchmarkServeMiss serves cache misses through the whole handler, one
// case per kind: a plot SVG for an identity and for a gzip-accepting
// client, an /events window, and a what-if report. A one-byte cache
// keeps only the newest entry, so alternating two URLs misses on every
// request; the run's parses are memoized outside the cache and are
// paid before the timer starts.
func BenchmarkServeMiss(b *testing.B) {
	root := b.TempDir()
	writeRun(b, root, "run1")
	writeIndexedRun(b, root, "ix", 16, 4096)
	writeCapturedRun(b, root, "cap")
	srv, err := New(Config{Root: root, CacheBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	plots := [2]string{"/runs/run1/plots/logical-heatmap.svg", "/runs/run1/plots/physical-heatmap.svg"}
	for _, c := range []struct {
		name  string
		paths [2]string
		gzip  bool
	}{
		{"identity", plots, false},
		{"gzip", plots, true},
		{"events", [2]string{"/runs/ix/events?t0=30000&t1=31000", "/runs/ix/events?t0=40000&t1=41000"}, false},
		{"whatif", [2]string{"/runs/cap/whatif?scale_network=2", "/runs/cap/whatif?scale_network=4"}, false},
	} {
		var reqs [2]*http.Request
		for i, p := range c.paths {
			reqs[i] = httptest.NewRequest("GET", p, nil)
			if c.gzip {
				reqs[i].Header.Set("Accept-Encoding", "gzip")
			}
		}
		w := &hitWriter{header: make(http.Header, 8)}
		next := 0 // alternates across b.Run's calls of the function too
		serve := func(tb testing.TB) {
			r := reqs[next%2]
			next++
			clear(w.header)
			w.code = http.StatusOK
			h.ServeHTTP(w, r)
			if w.code != http.StatusOK {
				tb.Fatalf("%s: status %d", r.URL, w.code)
			}
		}
		serve(b)
		serve(b)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serve(b)
			}
		})
	}
	if hits := srv.Metrics().CacheHits(); hits != 0 {
		b.Fatalf("%d cache hits: the benchmark must measure misses only", hits)
	}
}
