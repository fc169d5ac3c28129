package serve

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// svgLike returns n bytes of seeded, SVG-shaped text: compressible the
// way the daemon's artifacts are, but never the same twice.
func svgLike(rng *rand.Rand, n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" fill="#%06x"><title>PE %d</title></rect>`,
			rng.Float64()*900, rng.Intn(600), rng.Intn(1<<24), rng.Intn(256))
	}
	return b.Bytes()[:n]
}

func freshGzip(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(data)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledGzipMatchesFreshWriter: a pooled writer, Reset and reused
// across payloads of mixed sizes, writes exactly the bytes a fresh
// writer does - so pooling cannot change a served gzip body or its
// length - and concurrent misses never share one.
func TestPooledGzipMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{gzipMinBytes, 100_000, 1_500, 70_000, 2_048, 300_000, 900, 65_536, 12_000, 1 << 20, 5_000}
	var payloads [][]byte
	for i := 0; i < 60; i++ {
		payloads = append(payloads, svgLike(rng, sizes[i%len(sizes)]+rng.Intn(64)))
	}
	for i, p := range payloads {
		res := withGzip(renderResult{data: p})
		if want := freshGzip(t, p); !bytes.Equal(res.gz, want) {
			t.Fatalf("payload %d (%d bytes): pooled gzip is %d bytes, a fresh writer's %d", i, len(p), len(res.gz), len(want))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(payloads); i += 4 {
				if res := withGzip(renderResult{data: payloads[i]}); !bytes.Equal(res.gz, freshGzip(t, payloads[i])) {
					t.Errorf("payload %d: concurrent pooled gzip differs from a fresh writer's", i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCachedEntriesAreExactSize: every cached variant's backing array is
// exactly its length, so the byte budget charges what the cache holds.
func TestCachedEntriesAreExactSize(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	for _, kind := range artifactNames() {
		for _, format := range []string{"svg", "json"} {
			req := httptest.NewRequest("GET", "/runs/run1/plots/"+kind+"."+format, nil)
			req.Header.Set("Accept-Encoding", "gzip")
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/runs/run1/trace.perfetto.json", nil))
	c := srv.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	gz := 0
	for key, el := range c.items {
		res := el.Value.(*entry).res
		if cap(res.data) != len(res.data) || cap(res.gz) != len(res.gz) {
			t.Errorf("%q: data len %d cap %d, gzip len %d cap %d; want cap == len",
				strings.Split(key, "\x00")[2:], len(res.data), cap(res.data), len(res.gz), cap(res.gz))
		}
		if res.gz != nil {
			gz++
		}
	}
	if len(c.items) < 2*len(artifactNames()) || gz == 0 {
		t.Fatalf("%d cached entries, %d with a gzip variant: the fixture exercised too little", len(c.items), gz)
	}
}

// TestETagBytesPinned: the validator of an artifact identity is the
// same bytes it was before the key was joined in a fixed buffer, so no
// client's cached ETag goes stale on upgrade.
func TestETagBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		parts []string
		want  string
	}{
		{[]string{"run", "fp", "logical-heatmap.svg", ""}, "fad11630542944c39d50a57f"},
		{[]string{"p16-range-binary", "9f86d081884c7d65", "papi-bar.json", "PAPI_LST_INS"}, "829478c8bf23b4a0207b4a2f"},
		{[]string{"r", "f", "perfetto"}, "ebeece0925bcc7cfe7349ab8"},
		{[]string{"p8-cyclic-csv", "00ff00ff00ff00ff", "whatif", "network=2"}, "4d91027c227d7040d078e8f0"},
		{[]string{strings.Repeat("x", 300), "fp", "node-heatmap.svg", ""}, "73cc8bd60aa155ca8ce23d1c"},
	} {
		if got := etagFor(strings.Join(tc.parts, "\x00")); got != tc.want {
			t.Errorf("etagFor(%.40q) = %s, want %s", tc.parts, got, tc.want)
		}
	}
}

// TestWithGzipAllocatesNoCompressor: a miss on a 100 KB payload
// allocates its two exact-size copies and nothing else; a fresh flate
// compressor alone would be dozens of allocations and ~1 MB.
func TestWithGzipAllocatesNoCompressor(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	data := svgLike(rand.New(rand.NewSource(1)), 100_000)
	withGzip(renderResult{data: data}) // warm the pools
	if n := testing.AllocsPerRun(50, func() { withGzip(renderResult{data: data}) }); n > 2 {
		t.Errorf("withGzip allocates %.0f times per 100 KB payload, want the 2 exact-size copies", n)
	}
}

func BenchmarkWithGzip(b *testing.B) {
	data := svgLike(rand.New(rand.NewSource(1)), 100_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withGzip(renderResult{data: data})
	}
}
