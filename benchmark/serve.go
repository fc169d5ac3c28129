package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"actorprof/internal/core"
	"actorprof/internal/graph"
	"actorprof/internal/papi"
	"actorprof/internal/serve"
	"actorprof/internal/trace"
	"actorprof/internal/viz"
	"actorprof/internal/whatif"
)

// request classes. Plot and scan requests are further split into
// hit / miss / not-modified by the one-client classification pass.
const (
	classPlot = iota
	classScan
	classRuns
	classEvents
	classWhatIf
	numClasses
)

var classNames = [numClasses]string{"plot", "scan", "runs", "events", "whatif"}

// request is one generated request: everything about it except the
// If-None-Match value, which depends on what the client has seen.
type request struct {
	url   *url.URL
	class uint8
	gzip  bool
	// cond asks for a conditional GET when the client already holds an
	// ETag for the URL.
	cond bool
}

// fixture is the served root and what the generator needs to know of it.
type fixture struct {
	root string
	runs []fixtureRun
	// targets are the plot URLs (run x plot x format), sorted, so that a
	// zipf rank names the same URL for the same seed.
	targets []*url.URL
}

type fixtureRun struct {
	id         string
	npes       int
	binary     bool
	tMin, tMax int64
}

// buildFixture writes the served root: triangle counting on one R-MAT
// graph at two machine sizes and two distributions, each written in the
// text and in the binary format, each with its captured schedule, and
// with a time index wherever the format can carry one.
func buildFixture(root string, sz sizes, graphSeed uint64) (*fixture, error) {
	g, err := graph.GenerateRMAT(graph.Graph500(sz.serveScale, sz.edgeFactor, graphSeed))
	if err != nil {
		return nil, err
	}
	fx := &fixture{root: root}
	for _, npes := range sz.servePEs {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			rep, err := core.RunTriangle(core.TriangleExperiment{
				Graph: g, NumPEs: npes, PEsPerNode: sz.perNode, Dist: dist, Trace: core.FullTrace(),
			})
			if err != nil {
				return nil, err
			}
			if !rep.Validated() {
				return nil, fmt.Errorf("fixture run counted %d triangles, serial count is %d", rep.Triangles, rep.Expected)
			}
			for _, format := range []trace.Format{trace.FormatCSV, trace.FormatBinary} {
				id := fmt.Sprintf("p%d-%s-%s", npes, dist, format)
				dir := filepath.Join(root, id)
				set := *rep.Set
				set.Config.Format = format
				if err := set.WriteFiles(dir); err != nil {
					return nil, err
				}
				if err := whatif.WriteScheduleFile(dir, rep.Schedule); err != nil {
					return nil, err
				}
				if _, err := trace.BuildTimeIndex(dir); err != nil {
					return nil, err
				}
				fx.runs = append(fx.runs, fixtureRun{id: id, npes: npes, binary: format == trace.FormatBinary})
			}
		}
	}
	sort.Slice(fx.runs, func(i, j int) bool { return fx.runs[i].id < fx.runs[j].id })
	return fx, nil
}

// countingWriter is an http.ResponseWriter that counts the body instead
// of keeping it, and remembers its first bytes for the artifact check.
type countingWriter struct {
	header http.Header
	status int
	n      int64
	head   [5]byte
}

func (w *countingWriter) Header() http.Header { return w.header }

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.n < int64(len(w.head)) {
		copy(w.head[w.n:], p)
	}
	w.n += int64(len(p))
	return len(p), nil
}

// wellFormed reports whether the response is a 304, or a 200 whose body
// starts the way its declared type says it must.
func (w *countingWriter) wellFormed() bool {
	switch w.status {
	case http.StatusNotModified:
		return w.n == 0
	case http.StatusOK:
	default:
		return false
	}
	if w.header.Get("Content-Encoding") == "gzip" {
		return w.n >= 2 && w.head[0] == 0x1f && w.head[1] == 0x8b
	}
	switch w.header.Get("Content-Type") {
	case "image/svg+xml":
		return w.n >= 4 && string(w.head[:4]) == "<svg"
	case "application/json":
		return w.n >= 1 && (w.head[0] == '{' || w.head[0] == '[')
	}
	return false
}

// get performs one in-process GET and returns the full body (set-up
// traffic only; measured traffic goes through client.do).
func get(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, newRequest(mustParse(path), nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes(), nil
}

func newRequest(u *url.URL, hdr http.Header) *http.Request {
	if hdr == nil {
		hdr = http.Header{}
	}
	return &http.Request{
		Method: http.MethodGet, URL: u, Header: hdr, Host: "benchmark",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, RequestURI: u.RequestURI(),
	}
}

// discover fills in the plot targets and each run's time span by asking
// the server, as a dashboard would.
func (fx *fixture) discover(h http.Handler) error {
	body, err := get(h, "/api/runs?limit=1000")
	if err != nil {
		return err
	}
	var listing struct {
		Runs []struct {
			ID         string   `json:"id"`
			NumPEs     int      `json:"num_pes"`
			PEsPerNode int      `json:"pes_per_node"`
			Features   []string `json:"features"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return fmt.Errorf("/api/runs: %w", err)
	}
	if len(listing.Runs) != len(fx.runs) {
		return fmt.Errorf("/api/runs lists %d runs, the fixture has %d", len(listing.Runs), len(fx.runs))
	}
	var paths []string
	for _, run := range listing.Runs {
		kinds := []string{"logical-heatmap", "logical-violin", "physical-heatmap", "physical-violin",
			"overall-absolute", "overall-relative", "papi-bar", "papi-grouped"}
		if run.NumPEs > run.PEsPerNode {
			kinds = append(kinds, "node-heatmap")
		}
		for _, kind := range kinds {
			for _, format := range []string{"svg", "json"} {
				paths = append(paths, fmt.Sprintf("/runs/%s/plots/%s.%s", run.ID, kind, format))
			}
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		fx.targets = append(fx.targets, mustParse(p))
	}
	for i := range fx.runs {
		body, err := get(h, "/runs/"+fx.runs[i].id+"/events?lod=1")
		if err != nil {
			return err
		}
		var span struct {
			TMin int64 `json:"t_min"`
			TMax int64 `json:"t_max"`
		}
		if err := json.Unmarshal(body, &span); err != nil {
			return fmt.Errorf("events of %s: %w", fx.runs[i].id, err)
		}
		fx.runs[i].tMin, fx.runs[i].tMax = span.TMin, span.TMax
	}
	return nil
}

// whatIfQueries are the perturbations dashboards ask about.
var whatIfQueries = []string{
	"scale_network=0.5", "scale_network=2", "scale_network=4&plot=compare&format=svg",
	"scale_local=0.5&plot=compare", "scale_quiet=2", "scale_instr=0.5&plot=compare&format=svg",
	"plot=bottleneck", "plot=bottleneck&format=svg", "scale_ingest=2", "scale_network=0.25&scale_quiet=0.5",
}

// mixBlock is the request mix, as class counts per block of 400
// requests. The mix is stratified - every block holds exactly these
// counts, in an order drawn from the seed - because what-if requests cost
// a thousand times a cache hit: left to chance, how many of them a run
// happened to draw would be the largest difference between two seeds.
// One what-if in 400 keeps the 99th percentile on the render path and
// puts the projections at the 99.9th; at one in 50 they are nine tenths
// of the wall-clock and the workload measures internal/whatif alone.
var mixBlock = [numClasses]int{classPlot: 327, classScan: 40, classRuns: 16, classEvents: 16, classWhatIf: 1}

// generate draws n requests from rng: per block of 400, 327 zipf(1.1)
// draws over the plot targets, 40 steps of an ordered scan of all
// targets, 16 run listings, 16 event windows and one what-if; half of
// all requests accept gzip and a quarter of the plot requests revalidate.
func (fx *fixture) generate(rng *splitmix64, n int, scanCursor *int) []request {
	z := newZipf(len(fx.targets), 1.1, rng)
	var block []uint8
	for class, count := range mixBlock {
		for i := 0; i < count; i++ {
			block = append(block, uint8(class))
		}
	}
	out := make([]request, n)
	for i := range out {
		if i%len(block) == 0 {
			for j := len(block) - 1; j > 0; j-- {
				k := rng.intn(j + 1)
				block[j], block[k] = block[k], block[j]
			}
		}
		r := &out[i]
		r.class = block[i%len(block)]
		switch r.class {
		case classPlot:
			r.url = fx.targets[z.draw()]
			r.cond = rng.float64() < 0.25
		case classScan:
			r.url = fx.targets[*scanCursor%len(fx.targets)]
			*scanCursor++
		case classRuns:
			r.url = mustParse(fmt.Sprintf("/api/runs?offset=%d&limit=50", rng.intn(len(fx.runs)+1)))
		case classEvents:
			run := fx.runs[rng.intn(len(fx.runs))]
			span := run.tMax - run.tMin + 1
			t0 := run.tMin + int64(rng.intn(16))*span/16
			r.url = mustParse(fmt.Sprintf("/runs/%s/events?t0=%d&t1=%d&lod=%d", run.id, t0, t0+span/16, rng.intn(3)))
		case classWhatIf:
			run := fx.runs[rng.intn(len(fx.runs))]
			r.url = mustParse("/runs/" + run.id + "/whatif?" + whatIfQueries[rng.intn(len(whatIfQueries))])
		}
		r.gzip = rng.float64() < 0.5
	}
	return out
}

func mustParse(s string) *url.URL {
	u, err := url.Parse(s)
	if err != nil {
		panic(err)
	}
	return u
}

// client is one closed-loop caller: it sends its next request only when
// the previous reply has arrived, and revalidates with the ETags it has
// been given.
type client struct {
	h     http.Handler
	etags map[string]string
	// per-request results of the last drive.
	latencyNS []float64
	failed    int
	bytes     int64
	notMod    int
}

func newClient(h http.Handler) *client { return &client{h: h, etags: map[string]string{}} }

// do issues one request and returns its latency: a timer around the
// handler call and nothing else.
func (c *client) do(r request) (time.Duration, *countingWriter) {
	hdr := make(http.Header, 2)
	if r.gzip {
		hdr["Accept-Encoding"] = []string{"gzip"}
	}
	key := r.url.RequestURI()
	if r.cond {
		if tag, ok := c.etags[key]; ok {
			hdr["If-None-Match"] = []string{tag}
		}
	}
	req := newRequest(r.url, hdr)
	w := &countingWriter{header: make(http.Header, 6)}
	start := time.Now()
	c.h.ServeHTTP(w, req)
	elapsed := time.Since(start)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if r.class == classPlot {
		if tag := w.header.Get("ETag"); tag != "" {
			c.etags[key] = tag
		}
	}
	return elapsed, w
}

// drive sends every request in order, keeping latencies when keep is set.
func (c *client) drive(reqs []request, keep bool) {
	if keep {
		c.latencyNS = make([]float64, 0, len(reqs))
	}
	for _, r := range reqs {
		d, w := c.do(r)
		if !keep {
			continue
		}
		c.latencyNS = append(c.latencyNS, float64(d.Nanoseconds()))
		c.bytes += w.n
		if w.status == http.StatusNotModified {
			c.notMod++
		}
		if !w.wellFormed() {
			c.failed++
		}
	}
}

// serveWorkload holds one set-up of the serve workload.
type serveWorkload struct {
	fx  *fixture
	srv *serve.Server
	// warm and timed are the per-client request sequences.
	warm, timed [][]request
}

// setupServe builds the fixture root, the server over it, and the
// request sequences, all from the workload's stream.
func setupServe(root string, sz sizes, seed uint64, requests int) (*serveWorkload, error) {
	stream := workloadStream(seed, "serve_zipf")
	fx, err := buildFixture(root, sz, stream.next())
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Root: root, CacheBytes: sz.cacheBytes})
	if err != nil {
		return nil, err
	}
	if err := fx.discover(srv.Handler()); err != nil {
		return nil, err
	}
	w := &serveWorkload{fx: fx, srv: srv}
	scan := 0
	for c := 0; c < sz.clients; c++ {
		rng := &splitmix64{state: stream.next()}
		w.warm = append(w.warm, fx.generate(rng, sz.warmupRequests/sz.clients, &scan))
		w.timed = append(w.timed, fx.generate(rng, requests/sz.clients, &scan))
	}
	return w, nil
}

// serveE2E drives the clients concurrently through the warm-up and then
// the timed sequence, and reports throughput and latency percentiles.
func serveE2E(s *samples, w *serveWorkload) {
	h := w.srv.Handler()
	clients := make([]*client, len(w.timed))
	for i := range clients {
		clients[i] = newClient(h)
	}
	phase := func(seqs [][]request, keep bool) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for i, c := range clients {
			wg.Add(1)
			go func(c *client, reqs []request) {
				defer wg.Done()
				c.drive(reqs, keep)
			}(c, seqs[i])
		}
		wg.Wait()
		return time.Since(start)
	}
	phase(w.warm, false)
	hc := harnessBefore()
	window := phase(w.timed, true)

	var all []float64
	for _, c := range clients {
		all = append(all, c.latencyNS...)
		s.attempted += len(c.latencyNS)
		s.failed += c.failed
		if c.failed > 0 && len(s.failures) < 8 {
			s.failures = append(s.failures, fmt.Sprintf("%d responses were not a 200/304 with a well-formed artifact", c.failed))
		}
	}
	hc.after(s, 1)
	sort.Float64s(all)
	p50 := percentile(all, 0.50)
	rate := float64(len(all)) / window.Seconds()
	s.set("req_per_s", rate)
	s.set("req_p50_us", p50/1e3)
	s.set("req_p99_us", percentile(all, 0.99)/1e3)
	s.set("serve.req_p999_us", percentile(all, 0.999)/1e3)
	s.set("call_p50_ms", p50/1e6)
	s.set("work_per_s", rate)
}

// serveLayers replays the same sequences through one client against a
// fresh server over the same root, so that reading the server's own
// counters around each call classifies it exactly: a call that raised
// the not-modified counter was a 304, one that raised the miss counter
// rendered, anything else on a plot URL was a cache hit. It then calls
// the read-side modules directly on one fixture directory.
func serveLayers(rec *recorder, s *samples, w *serveWorkload, sz sizes) error {
	root := rec.begin("layer_pass", "", 0, -1)
	defer rec.end(root)
	srv, err := serve.New(serve.Config{Root: w.fx.root, CacheBytes: sz.cacheBytes})
	if err != nil {
		return err
	}
	c := newClient(srv.Handler())
	m := srv.Metrics()
	for i := range w.warm {
		c.drive(w.warm[i], false)
	}
	base := struct{ hits, misses, notMod, scans, fps int64 }{
		m.CacheHits(), m.CacheMisses(), m.NotModified(), m.RegistryScans(), m.Fingerprints()}
	// Interleave the clients' sequences request by request, the order a
	// fair scheduler would give two equally fast clients.
	var bytes int64
	var total, notMod int
	for i := 0; i < len(w.timed[0]); i++ {
		for _, seq := range w.timed {
			if i >= len(seq) {
				continue
			}
			r := seq[i]
			missBefore, notModBefore := m.CacheMisses(), m.NotModified()
			id := rec.begin("serve.request", "", total, root)
			_, cw := c.do(r)
			rec.end(id)
			class := classNames[r.class]
			if r.class == classPlot || r.class == classScan {
				switch {
				case m.NotModified() > notModBefore:
					class, notMod = "notmod", notMod+1
				case m.CacheMisses() > missBefore:
					class = "miss"
				default:
					class = "hit"
				}
			}
			rec.spans[id].Rung = class
			s.check(cw.wellFormed(), "GET %s: status %d is not a well-formed artifact", r.url, cw.status)
			bytes += cw.n
			total++
		}
	}
	hits, misses := m.CacheHits()-base.hits, m.CacheMisses()-base.misses
	if hits+misses > 0 {
		rec.count("serve.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	rec.count("serve.cache_misses", float64(misses))
	rec.count("serve.registry_scans", float64(m.RegistryScans()-base.scans))
	rec.count("serve.fingerprints", float64(m.Fingerprints()-base.fps))
	rec.count("serve.status_304_share", float64(notMod)/float64(max(total, 1)))
	rec.count("serve.bytes_out", float64(bytes))

	// The read-side modules, called directly on the largest binary run.
	var largest fixtureRun
	for _, r := range w.fx.runs {
		if r.binary && r.npes >= largest.npes {
			largest = r
		}
	}
	dir := filepath.Join(w.fx.root, largest.id)
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	rec.count("trace.disk_bytes", float64(n))
	for rep := 0; rep < sz.ladderReps; rep++ {
		var sum *trace.Summary
		var set *trace.Set
		var err1, err2, err3 error
		rec.measure("trace.read_summary", "", rep, root, func() { sum, _, err1 = trace.ReadSummary(dir, trace.ReadOptions{}) })
		rec.measure("trace.read_set", "", rep, root, func() { set, err2 = trace.ReadSet(dir) })
		rec.measure("trace.build_index", "", rep, root, func() { _, err3 = trace.BuildTimeIndex(dir) })
		if err := firstError(err1, err2, err3); err != nil {
			return err
		}
		var plots []viz.Plot
		rec.measure("core.build_plots", "", rep, root, func() { plots = plotSet(sum) })
		var svgBytes int
		var errR error
		rec.measure("viz.render_svg", "", rep, root, func() {
			for _, p := range plots {
				doc, err := p.RenderSVG()
				if err != nil {
					errR = err
				}
				svgBytes += len(doc)
			}
		})
		if errR != nil {
			return errR
		}
		rec.count("viz.svg_bytes", float64(svgBytes))
		rec.count("trace.records", float64(recordCount(set)))
		var tot int64
		for _, v := range sum.PAPITotalsPerPE(papi.TOT_INS) {
			tot += v
		}
		rec.count("papi.tot_ins", float64(tot))
	}
	if err := windowQueries(rec, s, root, dir, sz.windowQueries); err != nil {
		return err
	}
	sched, err := whatif.ReadScheduleFile(dir)
	if err != nil {
		return err
	}
	return whatIfEngines(rec, s, root, sched, sz.ladderReps)
}

// removeAll deletes a set-up's directory; a failure only leaves files
// behind in the benchmark's own scratch space.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
}
