package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// getOrRender is get with no deadline: the cache tests drive the cache
// alone, with no request to bound.
func (c *cache) getOrRender(key string, render func() (renderResult, error)) (renderResult, error) {
	return c.get(key, deadline{}, render)
}

const testTimeout = 100 * time.Millisecond

// timeoutServer builds a server whose requests wait at most testTimeout,
// over a root holding the given runs.
func timeoutServer(t *testing.T, cfg Config, runs ...string) *Server {
	t.Helper()
	cfg.Root = t.TempDir()
	for _, id := range runs {
		writeRun(t, cfg.Root, id)
	}
	cfg.RequestTimeout = testTimeout
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// gate is a test seam that, while armed, stops every flight of one kind
// at its start: each stopped flight announces itself on started and then
// waits for release, or panics once release closes when panics is set.
type gate struct {
	kind    string
	armed   atomic.Bool
	panics  bool
	started chan struct{}
	release chan struct{}
}

func newGate(kind string) *gate {
	// started is buffered past the few flights a test stops, so a flight
	// announcing itself never waits on the test to read.
	g := &gate{kind: kind, started: make(chan struct{}, 16), release: make(chan struct{})}
	g.armed.Store(true)
	return g
}

func (g *gate) seam(kind string) {
	if kind != g.kind || !g.armed.Load() {
		return
	}
	g.started <- struct{}{}
	<-g.release
	if g.panics {
		panic("render exploded")
	}
}

// open lets every stopped flight go and stops no more.
func (g *gate) open() {
	g.armed.Store(false)
	close(g.release)
}

// timedGet issues one GET and reports its status, body and latency.
func timedGet(t *testing.T, h http.Handler, path string) (int, string, time.Duration) {
	t.Helper()
	start := time.Now()
	res, body := get(t, h, path)
	return res.StatusCode, body, time.Since(start)
}

// wantTimedOut checks one answer is TimeoutHandler's: 503, its body, and
// no sooner than the deadline nor much later.
func wantTimedOut(t *testing.T, what string, code int, body string, took time.Duration) {
	t.Helper()
	if code != http.StatusServiceUnavailable || body != "request timed out\n" {
		t.Errorf("%s: %d %q, want 503 %q", what, code, body, "request timed out\n")
	}
	if took < testTimeout || took > testTimeout+time.Second {
		t.Errorf("%s answered after %v, want %v plus slack", what, took, testTimeout)
	}
}

// wantCounters checks that instrument's request and status counters and
// the timeout counter agree: every timeout is one 503 of one request.
func wantCounters(t *testing.T, m *Metrics, requests, ok int64, timeouts map[string]int64) {
	t.Helper()
	if got := m.requests.Load(); got != requests {
		t.Errorf("requests = %d, want %d", got, requests)
	}
	m.mu.Lock()
	got200, got503 := m.responses[http.StatusOK], m.responses[http.StatusServiceUnavailable]
	m.mu.Unlock()
	var total int64
	for kind, name := range flightKinds {
		total += timeouts[name]
		if got := m.timeouts[kind].Load(); got != timeouts[name] {
			t.Errorf("timeouts on %s = %d, want %d", name, got, timeouts[name])
		}
	}
	if got200 != ok || got503 != total {
		t.Errorf("responses: %d x 200 and %d x 503, want %d and %d", got200, got503, ok, total)
	}
	var b strings.Builder
	m.WriteTo(&b)
	for _, name := range flightKinds {
		if line := fmt.Sprintf("actorprofd_request_timeouts_total{on=%q} %d\n", name, timeouts[name]); !strings.Contains(b.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestRequestTimeoutRender: a render held past the deadline answers 503
// to the request that started it and to one coalesced onto it; the
// render still lands in the cache, so the next request is a hit and the
// artifact rendered once.
func TestRequestTimeoutRender(t *testing.T) {
	srv := timeoutServer(t, Config{}, "run1")
	g := newGate("render")
	srv.cache.seam = g.seam
	h := srv.Handler()
	const path = "/runs/run1/plots/logical-heatmap.svg"

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, body, took := timedGet(t, h, path)
		wantTimedOut(t, "the request that started the render", code, body, took)
	}()
	<-g.started
	code, body, took := timedGet(t, h, path)
	wantTimedOut(t, "the coalesced request", code, body, took)
	wg.Wait()

	g.open()
	for srv.cache.len() == 0 {
		time.Sleep(time.Millisecond)
	}
	if code, _, _ := timedGet(t, h, path); code != http.StatusOK {
		t.Fatalf("after the render landed: %d, want 200", code)
	}
	m := srv.Metrics()
	if m.renders.Load() != 1 || m.CacheMisses() != 1 || m.cacheHits.Load() != 1 || m.cacheCoalesced.Load() != 1 {
		t.Errorf("renders %d, misses %d, hits %d, coalesced %d; want 1 of each",
			m.renders.Load(), m.CacheMisses(), m.cacheHits.Load(), m.cacheCoalesced.Load())
	}
	wantCounters(t, m, 3, 1, map[string]int64{"render": 2})
}

// TestRequestTimeoutParse: with one parse slot, held by a parse of run1,
// a plot of run2 waits for the slot and answers 503 at its deadline. A
// hit on run1 answers at once: it touches only memory, so it does not
// wait behind its own run's parse.
func TestRequestTimeoutParse(t *testing.T) {
	srv := timeoutServer(t, Config{ParseConcurrency: 1}, "run1", "run2")
	g := newGate("parse")
	g.armed.Store(false)
	srv.reg.seam = g.seam
	h := srv.Handler()
	const hit = "/runs/run1/plots/logical-heatmap.svg"
	if code, body, _ := timedGet(t, h, hit); code != http.StatusOK {
		t.Fatalf("warming %s: %d %s", hit, code, body)
	}

	g.armed.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The held parse is run1's physical records, read for its export.
		code, body, took := timedGet(t, h, "/runs/run1/trace.perfetto.json")
		wantTimedOut(t, "the export whose parse is held", code, body, took)
	}()
	<-g.started
	code, body, took := timedGet(t, h, "/runs/run2/plots/logical-heatmap.svg")
	wantTimedOut(t, "a plot of the run waiting for a parse slot", code, body, took)
	if code, _, took := timedGet(t, h, hit); code != http.StatusOK || took >= testTimeout {
		t.Errorf("a hit on the run being parsed: %d after %v, want 200 before the deadline", code, took)
	}
	// The listing waits on run2's parse too, and fails whole: a run left
	// out for want of time would read as a run that failed to parse.
	code, body, took = timedGet(t, h, "/api/runs")
	wantTimedOut(t, "the listing", code, body, took)
	wg.Wait()

	g.open()
	if code, body, _ := timedGet(t, h, "/runs/run2/plots/logical-heatmap.svg"); code != http.StatusOK {
		t.Errorf("run2 after the slot freed: %d %s", code, body)
	}
	wantCounters(t, srv.Metrics(), 6, 3, map[string]int64{"render": 1, "parse": 2})
}

// TestRequestTimeoutScan: a request whose run cannot be resolved because
// the root scan is held answers 503 at its deadline, counted as a scan.
func TestRequestTimeoutScan(t *testing.T) {
	srv := timeoutServer(t, Config{}, "run1")
	g := newGate("scan")
	srv.reg.seam = g.seam
	h := srv.Handler()
	code, body, took := timedGet(t, h, "/runs/run1/plots/logical-heatmap.svg")
	wantTimedOut(t, "a plot behind a held scan", code, body, took)
	g.open()
	if code, body, _ := timedGet(t, h, "/runs/run1/plots/logical-heatmap.svg"); code != http.StatusOK {
		t.Errorf("after the scan landed: %d %s", code, body)
	}
	wantCounters(t, srv.Metrics(), 2, 1, map[string]int64{"scan": 1})
}

// TestRequestTimeoutRenderPanic: a render that panics answers 500 to
// every request waiting on it; the daemon keeps serving, and the next
// request renders again.
func TestRequestTimeoutRenderPanic(t *testing.T) {
	srv, _ := newTestServer(t)
	g := newGate("render")
	g.panics = true
	srv.cache.seam = g.seam
	h := srv.Handler()
	const path = "/runs/run1/plots/overall-relative.svg"

	codes := make(chan int, 2)
	go func() { code, _, _ := timedGet(t, h, path); codes <- code }()
	<-g.started
	go func() { code, _, _ := timedGet(t, h, path); codes <- code }()
	m := srv.Metrics()
	for m.cacheCoalesced.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	g.open()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusInternalServerError {
			t.Errorf("a waiter on the panicking render: %d, want 500", code)
		}
	}
	if code, body, _ := timedGet(t, h, path); code != http.StatusOK {
		t.Fatalf("after the panic: %d %s", code, body)
	}
	if misses := m.CacheMisses(); misses != 2 {
		t.Errorf("misses = %d, want 2: the panicked render is not cached", misses)
	}
	if code, _, _ := timedGet(t, h, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after the panic: %d", code)
	}
}

// TestRequestTimeoutClientGone: a request whose client goes away stops
// waiting at once, long before its deadline, and is not a timeout.
func TestRequestTimeoutClientGone(t *testing.T) {
	srv, _ := newTestServer(t)
	g := newGate("render")
	srv.cache.seam = g.seam
	defer g.open()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/runs/run1/plots/logical-heatmap.svg", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		<-g.started
		cancel()
	}()
	start := time.Now()
	srv.Handler().ServeHTTP(rec, req)
	if took := time.Since(start); rec.Code != http.StatusServiceUnavailable || took > 5*time.Second {
		t.Errorf("a request whose client left: %d after %v, want 503 at once", rec.Code, took)
	}
	for kind, name := range flightKinds {
		if n := srv.Metrics().timeouts[kind].Load(); n != 0 {
			t.Errorf("%d timeouts on %s counted for a client that left", n, name)
		}
	}
}
