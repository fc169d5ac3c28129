package serve

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"actorprof/internal/core"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

// RunInfo describes one trace directory the daemon serves.
type RunInfo struct {
	ID         string   `json:"id"`
	Dir        string   `json:"dir"`
	NumPEs     int      `json:"num_pes"`
	PEsPerNode int      `json:"pes_per_node"`
	Skipped    int      `json:"skipped_lines"`
	Features   []string `json:"features"`

	sum      *trace.Summary // nil when the run failed to parse
	schedule bool           // the directory holds a what-if schedule
}

// registry resolves run IDs to trace directories and caches what is
// read from them, keyed by a directory fingerprint so that a directory
// is re-read when (and only when) its files change.
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
//
// Every read of the disk - a scan, a fingerprint, a parse - runs in a
// flight, and the mutexes guard memory only: a request on a run never
// blocks behind another request's disk work, only waits on it up to its
// deadline.
type registry struct {
	root     string
	ttl      time.Duration // <= 0 disables the snapshot window
	metrics  *Metrics
	parseSem chan struct{}     // bounds concurrent parses (summary, physical records, time index, schedule)
	seam     func(kind string) // test seam: runs at the start of every scan and parse

	snapMu sync.Mutex
	snap   snapshot[map[string]string]

	mu   sync.Mutex
	runs map[string]*runEntry
}

// runEntry is one run's cached reads. mu guards the fields, never a
// read of the disk.
type runEntry struct {
	mu sync.Mutex
	fp snapshot[dirPrint] // the fingerprint last read from disk

	sum   memo[runSummary]
	phys  memo[*trace.Set]       // the physical records alone, for the Perfetto export and full-scan window queries
	ix    memo[*trace.TimeIndex] // nil when the directory carries no usable time index
	sched memo[*whatif.Baseline] // nil when the run predates schedule capture
}

// runSummary is what a run's aggregate parse yields.
type runSummary struct {
	sum      *trace.Summary
	skipped  int
	schedule bool // the directory holds a schedule.json
}

// snapshot is a value read from disk by a flight and reused for ttl
// after the read began.
type snapshot[T any] struct {
	f  *flight[T]
	at time.Time
}

// stale reports whether s must be read again: it is empty, older than
// ttl (ttl <= 0: always), failed, or force is set. A read still in
// progress is joined instead. The caller holds the lock that guards s.
func (s *snapshot[T]) stale(ttl time.Duration, force bool) bool {
	return s.f == nil || ttl <= 0 || force || s.f.landed() && (s.f.err != nil || time.Since(s.at) >= ttl)
}

// memo is a value parsed from a run's directory once per fingerprint.
type memo[T any] struct {
	fp string
	f  *flight[T]
}

// load returns m's value for run, starting a parse flight when m holds
// none for run's fingerprint, or holds a failure and keepErr is unset.
// parse reads the value of run id from its directory and reports the
// lines it skipped; it runs under the bound on concurrent parses and is
// counted in the metrics.
func load[T any](r *registry, d deadline, run resolvedRun, m *memo[T], keepErr bool,
	parse func(dir, id string) (T, int, error)) (T, error) {
	run.e.mu.Lock()
	f := m.f
	if f == nil || m.fp != run.fp.key || !keepErr && f.landed() && f.err != nil {
		dir, id := run.dir, run.id
		f = fly(kindParse, nil, func() (T, error) {
			r.parseSem <- struct{}{}
			defer func() { <-r.parseSem }()
			if r.seam != nil {
				r.seam(flightKinds[kindParse]) // a held parse holds its slot
			}
			start := time.Now()
			v, skipped, err := parse(dir, id)
			r.metrics.observeParse(time.Since(start), skipped)
			return v, err
		}, nil)
		m.fp, m.f = run.fp.key, f
	}
	run.e.mu.Unlock()
	return f.wait(d, kindParse)
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

// dirs returns the run-ID-to-directory map, reusing the snapshot while
// it is younger than ttl. A burst of requests arriving at window expiry
// waits on one scan, not one each. force skips the freshness check
// (used to re-check for a run created inside the current window).
func (r *registry) dirs(d deadline, force bool) (map[string]string, error) {
	r.snapMu.Lock()
	if r.snap.stale(r.ttl, force) {
		r.snap.f, r.snap.at = fly(kindScan, r.seam, r.scanDisk, nil), time.Now()
	}
	f := r.snap.f
	r.snapMu.Unlock()
	return f.wait(d, kindScan)
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

// dirPrint is a run directory's fingerprint in the two forms a request
// uses: a short digest of the listing, the cache-key component, and the
// SHA-256 state after "<run>\x00<listing>\x00", the start of every ETag's
// input (etagFor), so that a request hashes only its artifact's name and
// parameters.
type dirPrint struct {
	key string
	tag []byte
}

func printOf(id, listing string) dirPrint {
	sum := sha256.Sum256([]byte(listing))
	h := sha256.New()
	io.WriteString(h, id+"\x00"+listing+"\x00")
	tag, _ := h.(encoding.BinaryMarshaler).MarshalBinary()
	return dirPrint{key: hex.EncodeToString(sum[:12]), tag: tag}
}

// resolvedRun is a run resolved for one operation: its ID and directory,
// its cache slot and the directory's current fingerprint.
type resolvedRun struct {
	id  string
	dir string
	e   *runEntry
	fp  dirPrint
}

// resolve is the preamble every per-run operation shares: it resolves
// the run ID to its directory and cache slot and reads the directory's
// fingerprint, re-reading the directory only when the cached
// observation is older than the snapshot window.
func (r *registry) resolve(d deadline, id string) (resolvedRun, error) {
	dirs, err := r.dirs(d, false)
	if err != nil {
		return resolvedRun{}, err
	}
	dir, ok := dirs[id]
	if !ok && r.ttl > 0 {
		// The run may have been created inside the snapshot window.
		if dirs, err = r.dirs(d, true); err != nil {
			return resolvedRun{}, err
		}
		dir, ok = dirs[id]
	}
	if !ok {
		return resolvedRun{}, statusError{code: 404, msg: fmt.Sprintf("unknown run %q", id)}
	}
	r.mu.Lock()
	e := r.runs[id]
	if e == nil {
		e = &runEntry{}
		r.runs[id] = e
	}
	r.mu.Unlock()

	e.mu.Lock()
	if e.fp.stale(r.ttl, false) {
		e.fp.f, e.fp.at = fly(kindScan, r.seam, func() (dirPrint, error) {
			r.metrics.fingerprints.Add(1)
			listing, err := fingerprint(dir)
			if err != nil {
				return dirPrint{}, err
			}
			return printOf(id, listing), nil
		}, nil), time.Now()
	}
	f := e.fp.f
	e.mu.Unlock()
	fp, err := f.wait(d, kindScan)
	if err != nil {
		return resolvedRun{}, err
	}
	return resolvedRun{id: id, dir: dir, e: e, fp: fp}, nil
}

// summary returns the run's aggregate view - the streamed Summary
// itself, read-only once parsed, so renders across plot kinds share its
// matrices - along with the run (whose fingerprint is the cache-key
// component). It re-parses only when the directory changed since the
// last parse, and bounds how many parses run at once across all runs.
func (r *registry) summary(d deadline, id string) (runSummary, resolvedRun, error) {
	run, err := r.resolve(d, id)
	if err != nil {
		return runSummary{}, run, err
	}
	v, err := load(r, d, run, &run.e.sum, false, readSummary)
	return v, run, err
}

func readSummary(dir, id string) (runSummary, int, error) {
	sum, skipped, err := trace.ReadSummary(dir, trace.ReadOptions{Tolerant: true})
	if err != nil {
		return runSummary{}, skipped, fmt.Errorf("serve: parsing run %q: %w", id, err)
	}
	return runSummary{sum, skipped, whatif.HasSchedule(dir)}, skipped, nil
}

// physical returns the run's physical records alone - all the Perfetto
// export and a full-scan window query draw - read once per fingerprint.
func (r *registry) physical(d deadline, run resolvedRun) (*trace.Set, error) {
	return load(r, d, run, &run.e.phys, false, readPhysical)
}

func readPhysical(dir, id string) (*trace.Set, int, error) {
	set, skipped, err := trace.ReadPhysical(dir, trace.ReadOptions{Tolerant: true})
	if err != nil {
		return nil, skipped, fmt.Errorf("serve: parsing run %q: %w", id, err)
	}
	return set, skipped, nil
}

// queryWindow answers a windowed trace query against one run: through
// the cached time index when the directory carries a fresh one (reading
// only the blocks the window intersects), falling back to the exact
// full-scan reference over the run's physical records otherwise
// (CSV-only traces, torn or stale sidecars, a data file holding a record
// the readers reject).
func (r *registry) queryWindow(d deadline, run resolvedRun, q trace.Window) (*trace.WindowResult, error) {
	// A missing or stale sidecar loads as nil, once per fingerprint, so
	// repeated queries do not re-stat it.
	ix, err := load(r, d, run, &run.e.ix, true, func(dir, _ string) (*trace.TimeIndex, int, error) {
		ix, _ := trace.LoadTimeIndex(dir)
		return ix, 0, nil
	})
	if err != nil {
		return nil, err
	}
	if ix != nil {
		res, err := ix.Query(run.dir, q)
		if err == nil {
			return res, nil
		}
		// The data file does not hold what the index says: fall back,
		// and let the next query go straight to the full scan.
		run.e.mu.Lock()
		if run.e.ix.fp == run.fp.key {
			run.e.ix.f = &flight[*trace.TimeIndex]{done: closed}
		}
		run.e.mu.Unlock()
	}
	set, err := r.physical(d, run)
	if err != nil {
		return nil, err
	}
	if !set.Config.Physical {
		return nil, noData("run has no physical trace; nothing to query")
	}
	return trace.QueryWindowSet(set, q), nil
}

// closed is the done channel of a flight that was never flown.
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// listPage scans the root and returns the runs in [offset, offset+limit)
// of the stable (lexicographically sorted) run-ID order, along with the
// total run count. limit < 0 means "to the end". Only the runs inside
// the window are parsed, so paging over thousands of runs costs one
// page of parses, not all of them.
func (r *registry) listPage(d deadline, offset, limit int) ([]RunInfo, int, error) {
	dirs, err := r.dirs(d, false)
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
		v, run, err := r.summary(d, id)
		if errors.As(err, new(timedOut)) || err == errClientGone {
			return nil, 0, err
		}
		if err != nil {
			// A run that fails to parse stays listed (its ID is real) with
			// no features, so the listing never fails wholesale because one
			// directory is corrupt.
			infos = append(infos, RunInfo{ID: id, Dir: dirs[id]})
			continue
		}
		infos = append(infos, runInfo(run, v))
	}
	return infos, total, nil
}

// list returns every run's info, parsing as needed.
func (r *registry) list() ([]RunInfo, error) {
	infos, _, err := r.listPage(deadline{}, 0, -1)
	return infos, err
}

// count returns the number of runs under the root (the healthz number)
// without parsing any of them.
func (r *registry) count(d deadline) (int, error) {
	dirs, err := r.dirs(d, false)
	if err != nil {
		return 0, err
	}
	return len(dirs), nil
}

func runInfo(run resolvedRun, v runSummary) RunInfo {
	return RunInfo{
		ID:         run.id,
		Dir:        run.dir,
		NumPEs:     v.sum.NumPEs,
		PEsPerNode: v.sum.PEsPerNode,
		Skipped:    v.skipped,
		Features:   core.FeatureNames(v.sum),
		sum:        v.sum,
		schedule:   v.schedule,
	}
}
