package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// RunInfo describes one trace directory the daemon serves.
type RunInfo struct {
	ID         string   `json:"id"`
	Dir        string   `json:"dir"`
	NumPEs     int      `json:"num_pes"`
	PEsPerNode int      `json:"pes_per_node"`
	Skipped    int      `json:"skipped_lines"`
	Features   []string `json:"features"`
}

// registry resolves run IDs to trace directories and caches their parsed
// Sets, keyed by a directory fingerprint so that a directory is re-parsed
// when (and only when) its files change.
//
// Disk metadata work is amortized by a snapshot window (ttl): the root
// scan (ReadDir + one Stat per child) and each run's fingerprint
// (ReadDir + one Stat per file) are reused for up to ttl before being
// re-read. Before the window existed, every request paid both walks -
// O(runs + files) stat calls per request - which was the dominant
// latency term loadgen surfaced at high concurrency
// (TestSnapshotBoundsRegistryScans pins the fix). A run created less
// than ttl ago is still found: a miss against a fresh snapshot forces
// one re-scan before 404ing.
type registry struct {
	root     string
	ttl      time.Duration // <= 0 disables the snapshot window
	metrics  *Metrics
	parseSem chan struct{} // bounds concurrent directory parses (ReadSummary and ReadPhysical)

	snapMu   sync.Mutex
	snapDirs map[string]string
	snapAt   time.Time

	mu   sync.Mutex
	runs map[string]*runEntry
}

type runEntry struct {
	mu      sync.Mutex // serializes parsing of this one run
	fp      string     // fingerprint the cached parse corresponds to
	sum     *trace.Summary
	skipped int

	// The physical records alone (trace.ReadPhysical), loaded lazily and
	// cached per fingerprint for the two record-level consumers: the
	// Perfetto export and full-scan window queries.
	phys   *trace.Set
	physFP string

	// Time index for windowed queries, loaded lazily and cached per
	// fingerprint. nil with a matching ixFP means the directory carries
	// no usable index (CSV-only, stale) and queries fall back to
	// the full-scan reference without re-statting the sidecar.
	ix   *trace.TimeIndex
	ixFP string

	// Recorded what-if schedule, loaded lazily and cached per
	// fingerprint. nil with a matching schedFP means the directory
	// carries no schedule.json (the run predates capture) and whatif
	// requests 404 without re-statting it.
	sched   *sim.Schedule
	schedFP string

	// Last fingerprint observed on disk and when; reused within the
	// snapshot window so hot runs are not re-statted per request.
	curFP string
	fpAt  time.Time
}

func newRegistry(root string, parseConcurrency int, ttl time.Duration, m *Metrics) *registry {
	return &registry{
		root:     root,
		ttl:      ttl,
		metrics:  m,
		parseSem: make(chan struct{}, parseConcurrency),
		runs:     make(map[string]*runEntry),
	}
}

func isTraceDir(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, trace.MetaFile))
	return err == nil && fi.Mode().IsRegular()
}

// rootID names the root directory when it is itself a trace directory.
func rootID(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "run"
	}
	id := filepath.Base(abs)
	if id == "/" || id == "." || id == "" {
		id = "run"
	}
	return id
}

// scanDisk maps run IDs to directories: the root itself when it is a
// trace directory, plus every immediate child directory that is one. A
// child whose name collides with the root's ID wins (the root stays
// reachable by moving the trace into a child).
func (r *registry) scanDisk() (map[string]string, error) {
	r.metrics.scans.Add(1)
	dirs := make(map[string]string)
	if isTraceDir(r.root) {
		dirs[rootID(r.root)] = r.root
	}
	entries, err := os.ReadDir(r.root)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning %s: %w", r.root, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(r.root, e.Name())
		if isTraceDir(sub) {
			dirs[e.Name()] = sub
		}
	}
	return dirs, nil
}

// dirs returns the run-ID-to-directory map, reusing the snapshot when
// it is younger than ttl. The mutex is held across the disk scan so a
// burst of requests arriving at window expiry performs one scan, not
// one per request. force skips the freshness check (used to re-check
// for a run created inside the current window).
func (r *registry) dirs(force bool) (map[string]string, error) {
	if r.ttl <= 0 {
		return r.scanDisk()
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	if !force && r.snapDirs != nil && time.Since(r.snapAt) < r.ttl {
		return r.snapDirs, nil
	}
	dirs, err := r.scanDisk()
	if err != nil {
		return nil, err
	}
	r.snapDirs, r.snapAt = dirs, time.Now()
	return dirs, nil
}

// fingerprint summarizes a trace directory's contents (file names,
// sizes, modification times). Two identical fingerprints mean the parsed
// Set is still valid; any write into the directory changes it.
func fingerprint(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // racing a concurrent delete; the fingerprint changes anyway
		}
		fmt.Fprintf(&b, "%s\x00%d\x00%d\x01", e.Name(), info.Size(), info.ModTime().UnixNano())
	}
	return b.String(), nil
}

// lockedRun is a run resolved for one operation: its directory, its
// cache slot with e.mu held, and the directory's current fingerprint.
type lockedRun struct {
	dir string
	e   *runEntry
	fp  string
}

// lock is the preamble every per-run operation shares: it resolves the
// run ID to its directory and cache slot, takes the slot's lock - the
// caller releases it with unlock - and reads the directory's fingerprint,
// re-reading the directory only when the cached observation is older than
// the snapshot window.
func (r *registry) lock(id string) (lockedRun, error) {
	dirs, err := r.dirs(false)
	if err != nil {
		return lockedRun{}, err
	}
	dir, ok := dirs[id]
	if !ok && r.ttl > 0 {
		// The run may have been created inside the snapshot window.
		if dirs, err = r.dirs(true); err != nil {
			return lockedRun{}, err
		}
		dir, ok = dirs[id]
	}
	if !ok {
		return lockedRun{}, statusError{code: 404, msg: fmt.Sprintf("unknown run %q", id)}
	}
	r.mu.Lock()
	e := r.runs[id]
	if e == nil {
		e = &runEntry{}
		r.runs[id] = e
	}
	r.mu.Unlock()

	e.mu.Lock()
	if r.ttl <= 0 || e.curFP == "" || time.Since(e.fpAt) >= r.ttl {
		r.metrics.fingerprints.Add(1)
		fp, err := fingerprint(dir)
		if err != nil {
			e.mu.Unlock()
			return lockedRun{}, err
		}
		e.curFP, e.fpAt = fp, time.Now()
	}
	return lockedRun{dir: dir, e: e, fp: e.curFP}, nil
}

func (run lockedRun) unlock() { run.e.mu.Unlock() }

// load returns the run's aggregate view - the streamed Summary itself,
// read-only once parsed, so renders across plot kinds share its
// matrices - along with its fingerprint (the cache-key component) and
// its RunInfo. It re-parses only when the directory changed since the
// last parse, and bounds how many parses run at once across all runs.
func (r *registry) load(id string) (*trace.Summary, string, RunInfo, error) {
	run, err := r.lock(id)
	if err != nil {
		return nil, "", RunInfo{}, err
	}
	defer run.unlock()
	e := run.e
	if e.sum == nil || e.fp != run.fp {
		r.parseSem <- struct{}{}
		start := time.Now()
		sum, skipped, err := trace.ReadSummary(run.dir, trace.ReadOptions{Tolerant: true})
		r.metrics.observeParse(time.Since(start), skipped)
		<-r.parseSem
		if err != nil {
			return nil, "", RunInfo{}, fmt.Errorf("serve: parsing run %q: %w", id, err)
		}
		e.sum, e.fp, e.skipped = sum, run.fp, skipped
	}
	return e.sum, e.fp, r.infoLocked(id, run.dir, e), nil
}

// physicalLocked returns the run's physical records alone - all the
// Perfetto export and a full-scan window query draw - read once per
// fingerprint and cached beside the time index. The caller holds run.
func (r *registry) physicalLocked(id string, run lockedRun) (*trace.Set, error) {
	e := run.e
	if e.physFP != run.fp {
		r.parseSem <- struct{}{}
		start := time.Now()
		set, skipped, err := trace.ReadPhysical(run.dir, trace.ReadOptions{Tolerant: true})
		r.metrics.observeParse(time.Since(start), skipped)
		<-r.parseSem
		if err != nil {
			return nil, fmt.Errorf("serve: parsing run %q: %w", id, err)
		}
		e.phys, e.physFP = set, run.fp
	}
	return e.phys, nil
}

// physical is physicalLocked for a caller that holds nothing.
func (r *registry) physical(id string) (*trace.Set, error) {
	run, err := r.lock(id)
	if err != nil {
		return nil, err
	}
	defer run.unlock()
	return r.physicalLocked(id, run)
}

// fingerprintFor returns a run's current fingerprint without parsing
// anything - the cache-key/ETag component for endpoints that defer the
// expensive work into the render closure.
func (r *registry) fingerprintFor(id string) (string, error) {
	run, err := r.lock(id)
	if err != nil {
		return "", err
	}
	defer run.unlock()
	return run.fp, nil
}

// queryWindow answers a windowed trace query against one run: through
// the cached time index when the directory carries a fresh one (reading
// only the blocks the window intersects), falling back to the exact
// full-scan reference over the run's physical records otherwise
// (CSV-only traces, torn or stale sidecars, a data file holding a record
// the readers reject).
func (r *registry) queryWindow(id string, q trace.Window) (*trace.WindowResult, error) {
	run, err := r.lock(id)
	if err != nil {
		return nil, err
	}
	defer run.unlock()
	e := run.e
	if e.ixFP != run.fp {
		// One LoadTimeIndex per fingerprint: a missing or stale sidecar
		// caches as nil so repeated queries do not re-stat it.
		e.ix, _ = trace.LoadTimeIndex(run.dir)
		e.ixFP = run.fp
	}
	if e.ix != nil {
		res, err := e.ix.Query(run.dir, q)
		if err == nil {
			return res, nil
		}
		e.ix = nil // the data file does not hold what the index says: fall back
	}
	set, err := r.physicalLocked(id, run)
	if err != nil {
		return nil, err
	}
	if !set.Config.Physical {
		return nil, noData("run has no physical trace; nothing to query")
	}
	return trace.QueryWindowSet(set, q), nil
}

// listPage scans the root and returns the runs in [offset, offset+limit)
// of the stable (lexicographically sorted) run-ID order, along with the
// total run count. limit < 0 means "to the end". Only the runs inside
// the window are parsed, so paging over thousands of runs costs one
// page of parses, not all of them.
func (r *registry) listPage(offset, limit int) ([]RunInfo, int, error) {
	dirs, err := r.dirs(false)
	if err != nil {
		return nil, 0, err
	}
	ids := make([]string, 0, len(dirs))
	for id := range dirs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	total := len(ids)
	if offset > total {
		offset = total
	}
	end := total
	// Compare via the window size, not offset+limit, which can overflow
	// for adversarial ?limit= values near MaxInt.
	if limit >= 0 && limit < end-offset {
		end = offset + limit
	}
	infos := make([]RunInfo, 0, end-offset)
	for _, id := range ids[offset:end] {
		_, _, info, err := r.load(id)
		if err != nil {
			// A run that fails to parse stays listed (its ID is real) with
			// no features, so the listing never fails wholesale because one
			// directory is corrupt.
			infos = append(infos, RunInfo{ID: id, Dir: dirs[id]})
			continue
		}
		infos = append(infos, info)
	}
	return infos, total, nil
}

// list returns every run's info, parsing as needed.
func (r *registry) list() ([]RunInfo, error) {
	infos, _, err := r.listPage(0, -1)
	return infos, err
}

// count returns the number of runs under the root (the healthz number)
// without parsing any of them.
func (r *registry) count() (int, error) {
	dirs, err := r.dirs(false)
	if err != nil {
		return 0, err
	}
	return len(dirs), nil
}

func (r *registry) infoLocked(id, dir string, e *runEntry) RunInfo {
	info := RunInfo{
		ID:         id,
		Dir:        dir,
		NumPEs:     e.sum.NumPEs,
		PEsPerNode: e.sum.PEsPerNode,
		Skipped:    e.skipped,
	}
	cfg := e.sum.Config
	if cfg.Logical {
		info.Features = append(info.Features, "logical")
	}
	if cfg.Physical {
		info.Features = append(info.Features, "physical")
	}
	if cfg.Overall {
		info.Features = append(info.Features, "overall")
	}
	if len(cfg.PAPIEvents) > 0 {
		info.Features = append(info.Features, "papi")
	}
	return info
}
