package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// writeRun produces a finished trace directory named id under root.
func writeRun(t testing.TB, root, id string) {
	t.Helper()
	set, err := core.Run(core.Options{
		Machine: sim.Machine{NumPEs: 8, PEsPerNode: 4},
		Trace:   core.FullTrace(),
	}, func(rt *actor.Runtime) error {
		_, err := apps.Histogram(rt, apps.HistogramConfig{
			UpdatesPerPE: 200, TableSizePerPE: 32, Seed: 11,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's layout beside the APBF files, and no time index (the
	// indexed runs are writeIndexedRun's).
	set.Config.Format = trace.FormatCSV
	if err := set.WriteFiles(filepath.Join(root, id)); err != nil {
		t.Fatal(err)
	}
}

// newTestServer builds a Server over a root holding one finished run.
func newTestServer(t testing.TB) (*Server, string) {
	t.Helper()
	root := t.TempDir()
	writeRun(t, root, "run1")
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	return srv, root
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestServesAllPlotFamilies(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	for _, kind := range artifactNames() {
		for _, format := range []string{"svg", "json"} {
			path := fmt.Sprintf("/runs/run1/plots/%s.%s", kind, format)
			res, body := get(t, h, path)
			if res.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", path, res.StatusCode, body)
				continue
			}
			switch format {
			case "svg":
				if !strings.HasPrefix(body, "<svg") {
					t.Errorf("%s did not return an SVG document", path)
				}
				if ct := res.Header.Get("Content-Type"); ct != "image/svg+xml" {
					t.Errorf("%s content type %q", path, ct)
				}
			case "json":
				var v map[string]any
				if err := json.Unmarshal([]byte(body), &v); err != nil {
					t.Errorf("%s returned invalid JSON: %v", path, err)
				} else if v["title"] == "" {
					t.Errorf("%s JSON has no title", path)
				}
			}
		}
	}
	// The chrome://tracing export rides along with the plot families.
	res, body := get(t, h, "/runs/run1/trace.perfetto.json")
	if res.StatusCode != http.StatusOK || !strings.HasPrefix(body, `{"traceEvents":[`) {
		t.Errorf("trace.perfetto.json: status %d, body %.40q", res.StatusCode, body)
	}
}

func TestPlotParamsAndErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	cases := []struct {
		path string
		code int
	}{
		{"/runs/run1/plots/papi-bar.svg?event=PAPI_TOT_INS", http.StatusOK},
		{"/runs/run1/plots/papi-bar.svg?event=PAPI_BOGUS", http.StatusBadRequest},
		{"/runs/run1/plots/nonsense.svg", http.StatusNotFound},
		{"/runs/run1/plots/logical-heatmap.pdf", http.StatusNotFound},
		{"/runs/nope/plots/logical-heatmap.svg", http.StatusNotFound},
		{"/healthz", http.StatusOK},
		{"/api/runs", http.StatusOK},
		{"/", http.StatusOK},
		{"/metrics", http.StatusOK},
	}
	for _, tc := range cases {
		res, body := get(t, h, tc.path)
		if res.StatusCode != tc.code {
			t.Errorf("GET %s = %d, want %d (%s)", tc.path, res.StatusCode, tc.code, body)
		}
	}
}

func TestMissingFeatureIs404(t *testing.T) {
	root := t.TempDir()
	// A logical-only run: physical and overall plots must 404 with a
	// message naming the missing feature, not 500.
	writeMiniRun(t, root, "partial", 0)
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if res, _ := get(t, h, "/runs/partial/plots/logical-heatmap.svg"); res.StatusCode != http.StatusOK {
		t.Errorf("logical-heatmap on logical-only run: %d", res.StatusCode)
	}
	for _, path := range []string{
		"/runs/partial/plots/physical-heatmap.svg",
		"/runs/partial/plots/overall-absolute.json",
		"/runs/partial/trace.perfetto.json",
	} {
		res, body := get(t, h, path)
		if res.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %d, want 404 (%s)", path, res.StatusCode, body)
		}
	}
}

// TestPerfettoReadsInsideRender: the export reads the run's physical
// records in its render closure, like /events and /whatif - so a cache
// hit and a revalidation read nothing, even on a daemon that has not
// parsed the run yet. (TestMissingFeatureIs404 pins the other half: a
// run with no physical trace still answers 404.)
func TestPerfettoReadsInsideRender(t *testing.T) {
	srv, root := newTestServer(t)
	const path = "/runs/run1/trace.perfetto.json"
	res, body := get(t, srv.Handler(), path)
	etag := res.Header.Get("ETag")
	if res.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("first GET: %d, ETag %q", res.StatusCode, etag)
	}
	if n := srv.Metrics().parses.Load(); n != 1 {
		t.Fatalf("first GET cost %d parses, want the one physical-only read", n)
	}
	if res, again := get(t, srv.Handler(), path); res.StatusCode != http.StatusOK || again != body {
		t.Fatalf("repeat GET: %d, same body %v", res.StatusCode, again == body)
	}
	fresh, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Server{"warm": srv, "fresh": fresh} {
		before := s.Metrics().parses.Load()
		res, _ := getHdr(t, s.Handler(), path, map[string]string{"If-None-Match": etag})
		if res.StatusCode != http.StatusNotModified {
			t.Errorf("%s daemon: If-None-Match = %d, want 304", name, res.StatusCode)
		}
		if n := s.Metrics().parses.Load(); n != before {
			t.Errorf("%s daemon: a revalidation parsed the run (%d -> %d parses)", name, before, n)
		}
	}
}

// TestConcurrentSamePlotRendersOnce is the single-flight contract: N
// concurrent requests for one plot produce one render; everyone gets the
// same bytes.
func TestConcurrentSamePlotRendersOnce(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	const n = 16
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, body := get(t, h, "/runs/run1/plots/logical-heatmap.svg")
			if res.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, res.StatusCode)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d got different bytes", i)
		}
	}
	m := srv.Metrics()
	if got := m.CacheMisses(); got != 1 {
		t.Errorf("cache misses = %d, want 1 (single-flight)", got)
	}
	if hits := m.CacheHits(); hits != n-1 {
		t.Errorf("cache hits (incl. coalesced) = %d, want %d", hits, n-1)
	}
	if ratio := m.HitRatio(); ratio <= 0.9 {
		t.Errorf("hit ratio = %.3f, want > 0.9", ratio)
	}
}

// TestConcurrentDistinctPlots hammers every artifact from many
// goroutines under -race: renders must stay consistent and accounting
// must add up.
func TestConcurrentDistinctPlots(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	kinds := artifactNames()
	var wg sync.WaitGroup
	const rounds = 4
	for round := 0; round < rounds; round++ {
		for _, kind := range kinds {
			for _, format := range []string{"svg", "json"} {
				wg.Add(1)
				go func(kind, format string) {
					defer wg.Done()
					res, _ := get(t, h, fmt.Sprintf("/runs/run1/plots/%s.%s", kind, format))
					if res.StatusCode != http.StatusOK {
						t.Errorf("%s.%s: status %d", kind, format, res.StatusCode)
					}
				}(kind, format)
			}
		}
	}
	wg.Wait()
	m := srv.Metrics()
	total := m.CacheHits() + m.CacheMisses()
	if want := int64(rounds * len(kinds) * 2); total != want {
		t.Errorf("cache lookups = %d, want %d", total, want)
	}
	// Each distinct artifact renders at most once... but an unlucky
	// schedule cannot render more than one per distinct key.
	if misses := m.CacheMisses(); misses > int64(len(kinds)*2) {
		t.Errorf("misses = %d, want <= %d (one per distinct artifact)", misses, len(kinds)*2)
	}
}

func TestCacheEvictionUnderByteBudget(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root, "run1")
	// A tiny budget forces eviction after nearly every render.
	srv, err := New(Config{Root: root, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, kind := range []string{"logical-heatmap", "physical-heatmap", "overall-absolute"} {
		if res, _ := get(t, h, "/runs/run1/plots/"+kind+".svg"); res.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", kind, res.StatusCode)
		}
	}
	if n := srv.cache.len(); n != 1 {
		t.Errorf("cache holds %d entries under a 1-byte budget, want 1", n)
	}
	if ev := srv.Metrics().cacheEvictions.Load(); ev != 2 {
		t.Errorf("evictions = %d, want 2", ev)
	}
	// The same plot twice: second lookup re-renders (it was evicted or
	// kept, either way accounting must balance).
	get(t, h, "/runs/run1/plots/overall-absolute.svg")
	if hits := srv.Metrics().CacheHits(); hits != 1 {
		t.Errorf("hits = %d, want 1 (overall-absolute survived as newest)", hits)
	}
}

func TestMetricsEndpointReportsCounters(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	get(t, h, "/runs/run1/plots/logical-heatmap.svg")
	get(t, h, "/runs/run1/plots/logical-heatmap.svg")
	get(t, h, "/runs/nope/plots/logical-heatmap.svg")
	res, body := get(t, h, "/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", res.StatusCode)
	}
	for _, want := range []string{
		"actorprofd_requests_total 4",
		"actorprofd_cache_hits_total 1",
		"actorprofd_cache_misses_total 1",
		"actorprofd_cache_hit_ratio 0.5",
		`actorprofd_responses_total{code="200"} 2`,
		`actorprofd_responses_total{code="404"} 1`,
		"actorprofd_parse_total 1",
		"actorprofd_render_total 1",
		"actorprofd_parse_seconds_total",
		"actorprofd_render_seconds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestGracefulShutdownUnderLoad drives a real http.Server over the serve
// handler, opens in-flight requests, then calls Shutdown: every accepted
// request must complete with a 200, and Shutdown must not error.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	srv, _ := newTestServer(t)
	// Hold every request long enough for Shutdown to start while they
	// are in flight.
	release := make(chan struct{})
	const n = 8
	// Shutdown closes the listener, so it may start only once all n
	// requests are accepted; one still connecting would be refused.
	var started sync.WaitGroup
	started.Add(n)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started.Done()
		<-release
		srv.Handler().ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: slow}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := http.Get("http://" + ln.Addr().String() + "/runs/run1/plots/overall-relative.svg")
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			codes <- res.StatusCode
		}()
	}
	started.Wait()
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- hs.Shutdown(ctx)
	}()
	// Shutdown is now waiting on the in-flight requests; release them.
	time.Sleep(50 * time.Millisecond)
	close(release)
	for i := 0; i < n; i++ {
		select {
		case code := <-codes:
			if code != http.StatusOK {
				t.Errorf("in-flight request finished with %d, want 200", code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("request did not complete during graceful shutdown")
		}
	}
	if err := <-shutDone; err != nil {
		t.Errorf("graceful shutdown errored: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

func TestRootItselfAsTraceDir(t *testing.T) {
	root := t.TempDir()
	set, err := core.Run(core.Options{
		Machine: sim.Machine{NumPEs: 2, PEsPerNode: 2},
		Trace:   trace.Config{Logical: true},
	}, func(rt *actor.Runtime) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := set.WriteFiles(root); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := srv.reg.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("runs = %d, want 1 (the root itself)", len(infos))
	}
	res, _ := get(t, srv.Handler(), "/runs/"+infos[0].ID+"/plots/logical-heatmap.svg")
	if res.StatusCode != http.StatusOK {
		t.Errorf("root-as-run plot: %d", res.StatusCode)
	}
}

func TestNewRejectsBadRoot(t *testing.T) {
	if _, err := New(Config{Root: "/nonexistent/path"}); err == nil {
		t.Error("expected error for missing root")
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Root: f}); err == nil {
		t.Error("expected error for non-directory root")
	}
}
