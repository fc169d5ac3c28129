package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCorruptScheduleParsedOnce: a torn schedule shard costs one
// bounded, counted parse per fingerprint, however many what-if requests
// ask for it at once, and every request gets the same status; rewriting
// the file changes the fingerprint and loads the good schedule.
func TestCorruptScheduleParsedOnce(t *testing.T) {
	root := t.TempDir()
	writeCapturedRun(t, root, "cap")
	path := filepath.Join(root, "cap", "PE0_schedule.bin")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good[:len(good)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Root: root, SnapshotTTL: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	const n = 16
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { // distinct queries: no two requests share a render
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/runs/cap/whatif?scale_network=%d", i+2), nil))
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	if res, body := get(t, h, "/runs/cap/whatif?scale_network=99"); res.StatusCode != codes[0] {
		t.Errorf("a later request got %d, the first ones %d: %s", res.StatusCode, codes[0], body)
	}
	for i, code := range codes {
		if code != codes[0] || code == http.StatusOK {
			t.Fatalf("request %d on a torn schedule shard: status %d (first: %d)", i, code, codes[0])
		}
	}
	if p := srv.Metrics().parses.Load(); p != 1 {
		t.Fatalf("%d requests on one torn schedule shard cost %d parses, want 1", n+1, p)
	}

	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, body := get(t, h, "/runs/cap/whatif?scale_network=2"); res.StatusCode != http.StatusOK {
		t.Fatalf("after the rewrite: status %d: %s", res.StatusCode, body)
	}
	if p := srv.Metrics().parses.Load(); p != 2 {
		t.Errorf("the rewritten schedule shard took %d parses in all, want 2", p)
	}
}
