package serve

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"actorprof/internal/trace"
)

// writeIndexedRun writes a binary physical run named id under root with
// every record carrying a virtual-clock timestamp, then builds its time
// index, so the daemon's windowed queries take the indexed O(window)
// path. Cycles are laid out PE-major (pe*recsPerPE + i + 1), giving the
// APBF blocks disjoint, ordered time spans.
func writeIndexedRun(t testing.TB, root, id string, npes, recsPerPE int) string {
	t.Helper()
	s := trace.NewSet(trace.Config{Physical: true, Format: trace.FormatBinary}, npes, 2)
	for pe := 0; pe < npes; pe++ {
		for i := 0; i < recsPerPE; i++ {
			s.Physical[pe] = append(s.Physical[pe], trace.PhysicalRecord{
				Kind: 1, BufBytes: 64 + i%32, SrcPE: pe, DstPE: (pe + 1) % npes,
				Cycles: int64(pe*recsPerPE+i) + 1,
			})
		}
	}
	dir := filepath.Join(root, id)
	if err := s.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if built, err := trace.BuildTimeIndex(dir); err != nil || !built {
		t.Fatalf("BuildTimeIndex: built=%v err=%v", built, err)
	}
	return dir
}

// getHdr is get with request headers.
func getHdr(t *testing.T, h http.Handler, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, body
}

// TestWindowedEventsEndpoint drives /events end to end against an
// indexed run: the JSON answer must match the query engine exactly, a
// narrow window must touch only its blocks (the O(window) property,
// observed at the HTTP layer through blocks_read), LOD queries must
// read no blocks at all, the window metrics must add up, and repeats
// must come from the cache without re-querying.
func TestWindowedEventsEndpoint(t *testing.T) {
	root := t.TempDir()
	const npes, recsPerPE = 8, 2048 // 16384 rows = 16 blocks
	dir := writeIndexedRun(t, root, "ix", npes, recsPerPE)
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Full-span raw query: every block read, nothing truncated.
	res, body := get(t, h, "/runs/ix/events")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/events: %d (%s)", res.StatusCode, body)
	}
	var full trace.WindowResult
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatal(err)
	}
	if full.DomainName != "cycles" {
		t.Errorf("domain = %q, want cycles", full.DomainName)
	}
	if full.FullScan {
		t.Error("indexed run answered with a full scan")
	}
	if full.TotalBlocks != 16 || full.BlocksRead != 16 {
		t.Errorf("full span read %d/%d blocks, want 16/16", full.BlocksRead, full.TotalBlocks)
	}
	if len(full.Events) != npes*recsPerPE {
		t.Errorf("full span returned %d events, want %d", len(full.Events), npes*recsPerPE)
	}

	// Narrow window: the response must match the engine byte for byte
	// and touch only the intersecting blocks.
	q := trace.Window{T0: 3000, T1: 3500, MaxEvents: serverMaxEvents}
	want, err := trace.QueryWindow(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	res, narrowBody := get(t, h, "/runs/ix/events?t0=3000&t1=3500")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("narrow /events: %d (%s)", res.StatusCode, narrowBody)
	}
	var got trace.WindowResult
	if err := json.Unmarshal([]byte(narrowBody), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("HTTP events differ from engine: %d vs %d", len(got.Events), len(want.Events))
	}
	if got.BlocksRead >= got.TotalBlocks {
		t.Errorf("narrow window read %d of %d blocks; want a proper subset", got.BlocksRead, got.TotalBlocks)
	}
	if got.BlocksRead != want.BlocksRead {
		t.Errorf("HTTP blocks_read = %d, engine = %d", got.BlocksRead, want.BlocksRead)
	}

	// LOD query: pyramid only, zero data blocks.
	res, body = get(t, h, "/runs/ix/events?lod=2")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("lod /events: %d (%s)", res.StatusCode, body)
	}
	var lod trace.WindowResult
	if err := json.Unmarshal([]byte(body), &lod); err != nil {
		t.Fatal(err)
	}
	if lod.LOD < 1 || len(lod.Buckets) == 0 {
		t.Errorf("lod=2 returned lod=%d with %d buckets", lod.LOD, len(lod.Buckets))
	}
	if lod.BlocksRead != 0 {
		t.Errorf("pyramid query read %d blocks, want 0", lod.BlocksRead)
	}

	// The window metrics account for exactly the three queries above.
	m := srv.Metrics()
	if n := m.WindowQueries(); n != 3 {
		t.Errorf("window queries = %d, want 3", n)
	}
	if n := m.WindowBlocksRead(); n != int64(16+got.BlocksRead) {
		t.Errorf("window blocks read = %d, want %d", n, 16+got.BlocksRead)
	}
	if n := m.WindowFullScans(); n != 0 {
		t.Errorf("window full scans = %d, want 0", n)
	}
	_, metricsBody := get(t, h, "/metrics")
	for _, want := range []string{
		"actorprofd_window_queries_total 3",
		"actorprofd_window_full_scans_total 0",
		"actorprofd_window_blocks_read_total",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A repeat of the same window is a cache hit: no new query runs.
	res2, body2 := get(t, h, "/runs/ix/events?t0=3000&t1=3500")
	if res2.StatusCode != http.StatusOK || body2 != narrowBody {
		t.Errorf("repeated window returned different answer")
	}
	if n := m.WindowQueries(); n != 3 {
		t.Errorf("cache hit re-ran the query: %d queries", n)
	}

	// Equivalent parameter spellings share the entry too (normalization
	// happens before cache keying).
	get(t, h, "/runs/ix/events?t0=3000&t1=3500&lod=0&junk=1")
	if n := m.WindowQueries(); n != 3 {
		t.Errorf("equivalent params minted a new query: %d queries", n)
	}

	// Conditional revalidation: the ETag round-trips to a body-less 304.
	etag := res2.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /events")
	}
	res3, body3 := getHdr(t, h, "/runs/ix/events?t0=3000&t1=3500", map[string]string{"If-None-Match": etag})
	if res3.StatusCode != http.StatusNotModified || len(body3) != 0 {
		t.Errorf("If-None-Match: status %d, %d body bytes; want 304 empty", res3.StatusCode, len(body3))
	}

	// Content negotiation: the big full-span answer compresses.
	res4, body4 := getHdr(t, h, "/runs/ix/events", map[string]string{"Accept-Encoding": "gzip"})
	if enc := res4.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("full-span response not gzipped (Content-Encoding %q)", enc)
	}
	zr, err := gzip.NewReader(strings.NewReader(string(body4)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var again trace.WindowResult
	if err := json.Unmarshal(plain, &again); err != nil {
		t.Fatalf("gunzipped /events is not valid JSON: %v", err)
	}
	if len(again.Events) != len(full.Events) {
		t.Errorf("gzip variant carries %d events, identity %d", len(again.Events), len(full.Events))
	}
}

// TestEventsFullScanFallback queries a CSV-format run (which cannot
// carry a time index): the endpoint must still answer - via the exact
// full-scan reference - and say so in both the payload and the metrics.
func TestEventsFullScanFallback(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	res, body := get(t, h, "/runs/run1/events?lod=1")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/events on CSV run: %d (%s)", res.StatusCode, body)
	}
	var got trace.WindowResult
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if !got.FullScan {
		t.Error("CSV run did not report full_scan")
	}
	if got.DomainName != "sequence" {
		t.Errorf("CSV reload domain = %q, want sequence", got.DomainName)
	}
	if n := srv.Metrics().WindowFullScans(); n != 1 {
		t.Errorf("window full scans = %d, want 1", n)
	}
}

// TestWindowParamErrors pins the hardening contract: garbage window
// parameters are a 400 with a message naming the parameter, and a
// missing run is a 404 - never a 500.
func TestWindowParamErrors(t *testing.T) {
	root := t.TempDir()
	writeIndexedRun(t, root, "ix", 2, 64)
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	cases := []struct {
		query string
		code  int
	}{
		{"?t0=abc", 400},
		{"?t1=1.5", 400},
		{"?t0=99999999999999999999999", 400},
		{"?t1=0x10", 400},
		{"?lod=-1", 400},
		{"?lod=abc", 400},
		{"?max_events=-3", 400},
		{"?max_events=1e9", 400},
		{"?t0=-5&t1=10&lod=64", 200},
		{"?t0=9223372036854775807", 200}, // extreme but valid: clamped, empty
		{"", 200},
	}
	for _, tc := range cases {
		res, body := get(t, h, "/runs/ix/events"+tc.query)
		if res.StatusCode != tc.code {
			t.Errorf("/events%s = %d, want %d (%s)", tc.query, res.StatusCode, tc.code, body)
		}
	}
	if res, _ := get(t, h, "/runs/nope/events"); res.StatusCode != http.StatusNotFound {
		t.Errorf("missing run: %d, want 404", res.StatusCode)
	}
}

// TestPerfettoEndpoint serves the full-model export over HTTP: a valid
// JSON object, the only Trace Event export there is, revalidating
// through the fingerprint ETag like every artifact.
func TestPerfettoEndpoint(t *testing.T) {
	root := t.TempDir()
	writeIndexedRun(t, root, "ix", 4, 300)
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	res, body := get(t, h, "/runs/ix/trace.perfetto.json")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("perfetto: %d (%s)", res.StatusCode, body)
	}
	if !strings.HasPrefix(body, `{"traceEvents":[`) {
		t.Fatalf("perfetto export does not open the traceEvents object: %.40q", body)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("perfetto endpoint returned invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.OtherData["clock_domain"] != "cycles" {
		t.Fatalf("perfetto document malformed: %d events, otherData %v", len(doc.TraceEvents), doc.OtherData)
	}
	if legacy, _ := get(t, h, "/runs/ix/trace-events.json"); legacy.StatusCode != http.StatusNotFound {
		t.Errorf("the legacy instant-array export answers %d, want 404", legacy.StatusCode)
	}
	etag := res.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on perfetto export")
	}
	if res2, b2 := getHdr(t, h, "/runs/ix/trace.perfetto.json", map[string]string{"If-None-Match": etag}); res2.StatusCode != http.StatusNotModified || len(b2) != 0 {
		t.Errorf("perfetto If-None-Match: %d with %d body bytes, want 304 empty", res2.StatusCode, len(b2))
	}
}

// FuzzWindowParams hammers /events with arbitrary parameter strings:
// any input must yield a well-formed response below 500, and every 200
// must carry a valid WindowResult document.
func FuzzWindowParams(f *testing.F) {
	root := f.TempDir()
	writeIndexedRun(f, root, "ix", 4, 300)
	srv, err := New(Config{Root: root})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	for _, seed := range [][4]string{
		{"", "", "", ""},
		{"0", "100", "0", "10"},
		{"-9223372036854775808", "9223372036854775807", "64", "50000"},
		{"abc", "1.5", "-1", "1e9"},
		{"99999999999999999999", "0x10", "999", "0"},
		{" 5", "5 ", "\x00", "∞"},
		{"100", "3", "2", ""}, // inverted window: empty, not an error
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, t0, t1, lod, maxEvents string) {
		q := url.Values{}
		for name, v := range map[string]string{"t0": t0, "t1": t1, "lod": lod, "max_events": maxEvents} {
			if v != "" {
				q.Set(name, v)
			}
		}
		req := httptest.NewRequest("GET", "/runs/ix/events?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("t0=%q t1=%q lod=%q max_events=%q: status %d", t0, t1, lod, maxEvents, rec.Code)
		}
		if rec.Code == 200 {
			var res trace.WindowResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("t0=%q t1=%q: 200 with invalid JSON: %v", t0, t1, err)
			}
			if res.BlocksRead < 0 || res.BlocksRead > res.TotalBlocks {
				t.Fatalf("t0=%q t1=%q: blocks_read %d of %d", t0, t1, res.BlocksRead, res.TotalBlocks)
			}
		}
	})
}
