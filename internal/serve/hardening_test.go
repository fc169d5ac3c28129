package serve

import (
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"actorprof/internal/trace"
)

// miniSet is a minimal logical-only 2-PE trace, one send per PE: cheap
// enough to write hundreds of runs in a test, unlike writeRun which
// executes a full simulated app. The salt varies the message sizes so
// distinct runs have distinct fingerprints.
func miniSet(salt int) *trace.Set {
	s := trace.NewSet(trace.Config{Logical: true}, 2, 2)
	s.Logical[0] = []trace.LogicalSend{{DstPE: 1, MsgSize: int32(8 + salt%7)}}
	s.Logical[1] = []trace.LogicalSend{{DstPE: 0, MsgSize: int32(16 + salt%5)}}
	return s
}

// writeMiniRun writes miniSet(salt) as the trace directory id under root.
func writeMiniRun(t testing.TB, root, id string, salt int) {
	t.Helper()
	if err := miniSet(salt).WriteFiles(filepath.Join(root, id)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotBoundsRegistryScans is the regression test for the
// per-request stat storm loadgen surfaced: before the snapshot, every
// plot request re-scanned the served root (ReadDir + one Stat per
// child) and re-fingerprinted the run directory (ReadDir + one Stat per
// file), so disk metadata traffic scaled O(requests x runs). With the
// snapshot window (Config.SnapshotTTL, default 500ms), a burst of
// requests inside one window performs a bounded number of scans and
// fingerprints no matter how many requests arrive.
func TestSnapshotBoundsRegistryScans(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 3; i++ {
		writeMiniRun(t, root, fmt.Sprintf("run%d", i), i)
	}
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const requests = 50
	for i := 0; i < requests; i++ {
		path := fmt.Sprintf("/runs/run%d/plots/logical-heatmap.svg", i%3)
		if res, body := get(t, h, path); res.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d (%s)", path, res.StatusCode, body)
		}
	}
	for i := 0; i < 10; i++ {
		if res, _ := get(t, h, "/api/runs"); res.StatusCode != http.StatusOK {
			t.Fatalf("/api/runs: %d", res.StatusCode)
		}
	}
	m := srv.Metrics()
	// One scan fills the snapshot; allow a couple for TTL-boundary slop.
	if scans := m.RegistryScans(); scans > 3 {
		t.Errorf("registry scans = %d for %d requests, want <= 3 (snapshot should absorb the burst)", scans, requests+10)
	}
	// One fingerprint per run fills the window; allow one extra round.
	if fps := m.Fingerprints(); fps > 6 {
		t.Errorf("fingerprints = %d for %d requests over 3 runs, want <= 6", fps, requests+10)
	}
}

// TestIrrelevantParamSharesCacheEntry is the regression test for the
// cache-busting hole loadgen's adversarial scan mix surfaced: query
// parameters were embedded in the cache key for every plot kind, so
// /plots/logical-heatmap.svg?event=anything rendered and cached a
// separate identical copy per parameter value, letting a scanning
// client evict the hot set with one URL template. Only plot kinds that
// consume ?event= (papi-bar) may key on it.
func TestIrrelevantParamSharesCacheEntry(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	paths := []string{
		"/runs/run1/plots/logical-heatmap.svg",
		"/runs/run1/plots/logical-heatmap.svg?event=bust-0",
		"/runs/run1/plots/logical-heatmap.svg?event=bust-1&x=2",
	}
	var bodies []string
	for _, p := range paths {
		res, body := get(t, h, p)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", p, res.StatusCode)
		}
		bodies = append(bodies, body)
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("request %d returned different bytes despite identical plot", i)
		}
	}
	m := srv.Metrics()
	if misses := m.CacheMisses(); misses != 1 {
		t.Errorf("cache misses = %d, want 1 (irrelevant params must share one cache entry)", misses)
	}
	// papi-bar genuinely consumes ?event=, so distinct events must stay
	// distinct entries.
	get(t, h, "/runs/run1/plots/papi-bar.svg?event=PAPI_TOT_INS")
	get(t, h, "/runs/run1/plots/papi-bar.svg?event=PAPI_LST_INS")
	if misses := m.CacheMisses(); misses != 3 {
		t.Errorf("cache misses = %d after two distinct papi-bar events, want 3", misses)
	}
}
