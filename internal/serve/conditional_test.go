package serve

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"actorprof/internal/trace"
)

// getH issues a request with extra headers (and an arbitrary method)
// through the handler.
func getH(t *testing.T, h http.Handler, method, path string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
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
	return res, string(body)
}

// TestConditionalRequests is the ETag/If-None-Match and gzip
// negotiation contract, as a table over one served plot.
func TestConditionalRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	const path = "/runs/run1/plots/logical-heatmap.svg"

	// Prime: the unconditional response carries the validator.
	first, identityBody := getH(t, h, "GET", path, nil)
	etag := first.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("unconditional GET returned no quoted ETag: %q", etag)
	}
	gzETag := `"` + strings.Trim(etag, `"`) + `-gz"`

	cases := []struct {
		name     string
		method   string
		hdr      map[string]string
		wantCode int
		wantBody string // "identity", "gzip", "empty", or "" (don't check)
	}{
		{"no conditions is 200", "GET", nil, 200, "identity"},
		{"matching etag is 304", "GET", map[string]string{"If-None-Match": etag}, 304, "empty"},
		{"wildcard is 304", "GET", map[string]string{"If-None-Match": "*"}, 304, "empty"},
		{"weak-form etag matches", "GET", map[string]string{"If-None-Match": "W/" + etag}, 304, "empty"},
		{"etag inside a list matches", "GET", map[string]string{"If-None-Match": `"zzz", ` + etag + `, "yyy"`}, 304, "empty"},
		{"gzip-variant etag matches", "GET", map[string]string{"If-None-Match": gzETag}, 304, "empty"},
		{"stale etag re-serves 200", "GET", map[string]string{"If-None-Match": `"0000000000000000"`}, 200, "identity"},
		{"accept gzip gets gzip", "GET", map[string]string{"Accept-Encoding": "gzip"}, 200, "gzip"},
		{"accept anything gets gzip", "GET", map[string]string{"Accept-Encoding": "*"}, 200, "gzip"},
		{"gzip at q=0 stays identity", "GET", map[string]string{"Accept-Encoding": "gzip;q=0"}, 200, "identity"},
		{"refused gzip beats a wildcard", "GET", map[string]string{"Accept-Encoding": "*, gzip;q=0"}, 200, "identity"},
		{"listed gzip beats a refused wildcard", "GET", map[string]string{"Accept-Encoding": "*;q=0, gzip"}, 200, "gzip"},
		{"unknown coding stays identity", "GET", map[string]string{"Accept-Encoding": "br"}, 200, "identity"},
		{"HEAD has headers, no body", "HEAD", nil, 200, "empty"},
		{"HEAD revalidates to 304", "HEAD", map[string]string{"If-None-Match": etag}, 304, "empty"},
		{"gzip 304 still has no body", "GET", map[string]string{"Accept-Encoding": "gzip", "If-None-Match": etag}, 304, "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, body := getH(t, h, tc.method, path, tc.hdr)
			if res.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", res.StatusCode, tc.wantCode)
			}
			if v := res.Header.Get("Vary"); v != "Accept-Encoding" {
				t.Errorf("Vary = %q, want Accept-Encoding", v)
			}
			switch tc.wantBody {
			case "identity":
				if body != identityBody {
					t.Errorf("body differs from the identity representation")
				}
				if enc := res.Header.Get("Content-Encoding"); enc != "" {
					t.Errorf("Content-Encoding = %q, want none", enc)
				}
				if res.Header.Get("ETag") != etag {
					t.Errorf("ETag = %q, want %q", res.Header.Get("ETag"), etag)
				}
			case "gzip":
				if enc := res.Header.Get("Content-Encoding"); enc != "gzip" {
					t.Fatalf("Content-Encoding = %q, want gzip", enc)
				}
				if got := res.Header.Get("ETag"); got != gzETag {
					t.Errorf("gzip ETag = %q, want %q", got, gzETag)
				}
				if cl := res.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
					t.Errorf("Content-Length = %q, body is %d bytes", cl, len(body))
				}
				if len(body) >= len(identityBody) {
					t.Errorf("gzip body (%d bytes) is not smaller than identity (%d)", len(body), len(identityBody))
				}
				zr, err := gzip.NewReader(strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				plain, err := io.ReadAll(zr)
				if err != nil {
					t.Fatal(err)
				}
				if string(plain) != identityBody {
					t.Errorf("gzip body does not decompress to the identity bytes")
				}
			case "empty":
				if body != "" {
					t.Errorf("body = %d bytes, want empty", len(body))
				}
			}
			if tc.method == "HEAD" && tc.wantCode == 200 {
				if cl := res.Header.Get("Content-Length"); cl != strconv.Itoa(len(identityBody)) {
					t.Errorf("HEAD Content-Length = %q, want %d", cl, len(identityBody))
				}
			}
		})
	}

	if nm := srv.Metrics().NotModified(); nm != 7 {
		t.Errorf("not-modified counter = %d, want 7 (one per 304 case)", nm)
	}
}

// TestETagStableAcrossIdenticalRenders: the validator is derived from
// the run's fingerprint, so re-rendering identical content (e.g. after
// an eviction) keeps the same ETag - including across server restarts
// over the same directory.
func TestETagStableAcrossIdenticalRenders(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root, "run1")
	const path = "/runs/run1/plots/overall-absolute.json"
	var etags []string
	for i := 0; i < 2; i++ {
		srv, err := New(Config{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := getH(t, srv.Handler(), "GET", path, nil)
		etags = append(etags, res.Header.Get("ETag"))
	}
	if etags[0] == "" || etags[0] != etags[1] {
		t.Errorf("ETag not stable across identical renders: %q vs %q", etags[0], etags[1])
	}
}

// TestETagChangesOnLiveIngest: a write into a served trace directory changes
// the fingerprint, so a held ETag stops matching and the client gets
// fresh bytes with a fresh validator - the no-invalidation-protocol
// contract extended to conditional requests.
func TestETagChangesOnLiveIngest(t *testing.T) {
	root := t.TempDir()
	writeMiniRun(t, root, "live", 0)
	srv, err := New(Config{Root: root, SnapshotTTL: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const path = "/runs/live/plots/logical-heatmap.json"

	res, _ := getH(t, h, "GET", path, nil)
	etag := res.Header.Get("ETag")
	if res2, _ := getH(t, h, "GET", path, map[string]string{"If-None-Match": etag}); res2.StatusCode != 304 {
		t.Fatalf("unchanged run revalidation = %d, want 304", res2.StatusCode)
	}

	// More records land in the directory.
	set := miniSet(0)
	set.Logical[0] = append(set.Logical[0], trace.LogicalSend{DstPE: 1, MsgSize: 64})
	if err := set.WriteFiles(filepath.Join(root, "live")); err != nil {
		t.Fatal(err)
	}

	res3, _ := getH(t, h, "GET", path, map[string]string{"If-None-Match": etag})
	if res3.StatusCode != 200 {
		t.Fatalf("post-ingest revalidation = %d, want 200 (fingerprint changed)", res3.StatusCode)
	}
	if newTag := res3.Header.Get("ETag"); newTag == etag || newTag == "" {
		t.Errorf("post-ingest ETag %q did not change from %q", newTag, etag)
	}
}

// TestParamNormalizedInETag: irrelevant query parameters affect neither
// the cache key nor the validator.
func TestParamNormalizedInETag(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	res1, _ := getH(t, h, "GET", "/runs/run1/plots/logical-heatmap.svg", nil)
	res2, _ := getH(t, h, "GET", "/runs/run1/plots/logical-heatmap.svg?event=ignored", nil)
	if res1.Header.Get("ETag") != res2.Header.Get("ETag") {
		t.Errorf("irrelevant param changed ETag: %q vs %q", res1.Header.Get("ETag"), res2.Header.Get("ETag"))
	}
	// papi-bar consumes the parameter: distinct events, distinct tags.
	res3, _ := getH(t, h, "GET", "/runs/run1/plots/papi-bar.svg?event=PAPI_TOT_INS", nil)
	res4, _ := getH(t, h, "GET", "/runs/run1/plots/papi-bar.svg?event=PAPI_LST_INS", nil)
	if res3.Header.Get("ETag") == res4.Header.Get("ETag") {
		t.Errorf("distinct papi-bar events share an ETag: %q", res3.Header.Get("ETag"))
	}
}

// TestGzipSkippedForSmallOrIncompressible: an artifact below
// gzipMinBytes, or one gzip cannot shrink by a tenth, carries no gzip
// variant; a large compressible one does.
func TestGzipSkippedForSmallOrIncompressible(t *testing.T) {
	random := make([]byte, 4*gzipMinBytes)
	rand.New(rand.NewSource(1)).Read(random)
	for _, tc := range []struct {
		name string
		data []byte
		gz   bool
	}{
		{"small", bytes.Repeat([]byte("a"), gzipMinBytes-1), false},
		{"incompressible", random, false},
		{"large and compressible", bytes.Repeat([]byte("a"), gzipMinBytes), true},
	} {
		if res := withGzip(renderResult{data: tc.data}); (res.gz != nil) != tc.gz {
			t.Errorf("%s: gzip variant of %d bytes, want one: %v", tc.name, len(res.gz), tc.gz)
		}
	}
}
