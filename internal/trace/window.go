package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"actorprof/internal/conveyor"
)

// The windowed query engine answers "what happened between t0 and t1"
// against a physical trace without walking the whole file. With a time
// index (physical.idx) the engine seeks to and decodes only the APBF
// blocks whose timestamp spans intersect the window - O(window), not
// O(trace) - and zoomed-out requests (LOD >= 1) are answered from the
// index's pyramid alone, touching zero data blocks. Directories without
// a usable index (never indexed, torn or stale sidecars) fall back to
// an exact full-scan reference, QueryWindowSet, which is also the oracle
// the differential test suite compares the indexed path against.

// Window is one query: the half-open timestamp interval [T0, T1) in the
// trace's clock domain, and the level of detail. LOD 0 returns the raw
// events in the window; LOD >= 1 returns pyramid buckets from level
// LOD-1 (clamped to the coarsest available level). MaxEvents > 0 caps
// the event payload after sorting (Truncated reports the cut).
type Window struct {
	T0, T1    int64
	LOD       int
	MaxEvents int
}

// WindowEvent is one physical transfer inside the queried window.
type WindowEvent struct {
	TS       int64             `json:"ts"`
	Kind     conveyor.SendKind `json:"kind"`
	BufBytes int               `json:"buf_bytes"`
	SrcPE    int               `json:"src_pe"`
	DstPE    int               `json:"dst_pe"`
}

// WindowBucket is one pyramid bucket overlapping the queried window,
// covering the half-open interval [T0, T1).
type WindowBucket struct {
	T0 int64 `json:"t0"`
	T1 int64 `json:"t1"`
	PyramidBucket
}

// WindowResult is a query's answer plus the provenance a caller (or a
// load-shape test) needs: which clock domain the timestamps live in,
// the effective LOD and bucket width, the trace's global span, and how
// much of the data file the query actually touched.
type WindowResult struct {
	Domain      ClockDomain    `json:"-"`
	DomainName  string         `json:"domain"`
	LOD         int            `json:"lod"`
	BucketWidth int64          `json:"bucket_width,omitempty"`
	TMin        int64          `json:"t_min"`
	TMax        int64          `json:"t_max"`
	Events      []WindowEvent  `json:"events,omitempty"`
	Buckets     []WindowBucket `json:"buckets,omitempty"`
	Truncated   bool           `json:"truncated,omitempty"`
	// BlocksRead counts the data-file blocks this query decoded;
	// TotalBlocks is the whole file, so BlocksRead << TotalBlocks is the
	// O(window) property. FullScan marks the reference fallback path.
	BlocksRead  int  `json:"blocks_read"`
	TotalBlocks int  `json:"total_blocks"`
	FullScan    bool `json:"full_scan,omitempty"`
}

// Query answers q against the indexed physical trace in dir. Only the
// data blocks whose spans intersect [T0, T1) are read; LOD >= 1 queries
// read none at all. Errors (a data file that shrank or tore under the
// index) should send the caller to QueryWindow's full-scan fallback.
func (ix *TimeIndex) Query(dir string, q Window) (*WindowResult, error) {
	res := ix.newResult(q)
	if ix.nrows == 0 {
		return res, nil
	}
	q = clampWindow(q, ix.TMin, ix.TMax)
	if q.T1 <= q.T0 {
		return res, nil
	}
	if res.LOD >= 1 {
		ix.queryPyramid(q, res)
		return res, nil
	}
	f, err := os.Open(filepath.Join(dir, physicalBinFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The header is what precedes the first block, and then each block
	// the window meets is read: exactly its extent.
	buf := make([]byte, ix.blocks[0].off)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	var d binReader
	d.reset(nil, buf, 0, 0)
	ok, err := d.header(f.Name(), binKindPhysical, binPhysicalMinCols)
	if err != nil {
		return nil, err
	}
	if !ok || d.ncols != ix.ncols {
		return nil, fmt.Errorf("trace: %s: header no longer matches the index built over it", f.Name())
	}
	for _, b := range ix.blocks {
		if b.t1 < q.T0 || b.t0 >= q.T1 {
			continue
		}
		buf = slices.Grow(buf[:0], int(b.length))[:b.length]
		if _, err := f.ReadAt(buf, b.off); err != nil {
			return nil, err
		}
		d.reset(nil, buf, b.off, b.rowBase)
		if _, err := d.eachBlock(false, func(at block) error {
			if at != b.block {
				return fmt.Errorf("trace: %s: bytes at %d decode as %d rows in %d bytes, the index says %d in %d",
					f.Name(), b.off, at.rows, at.length, b.rows, b.length)
			}
			for i := 0; i < at.rows; i++ {
				r := physicalFromRow(&d, i)
				if err := checkPhysical(r, ix.npes); err != nil {
					return err
				}
				res.addEvent(q, ix.Domain.stamp(at.rowBase+int64(i), r), r)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		res.BlocksRead++
	}
	finishEvents(res, q)
	return res, nil
}

// newResult seeds a WindowResult with the index's metadata and the
// effective (clamped) LOD.
func (ix *TimeIndex) newResult(q Window) *WindowResult {
	lod := clampLOD(q.LOD, len(ix.levels))
	res := &WindowResult{
		Domain:      ix.Domain,
		DomainName:  ix.Domain.String(),
		LOD:         lod,
		TMin:        ix.TMin,
		TMax:        ix.TMax,
		TotalBlocks: len(ix.blocks),
	}
	if lod >= 1 && lod <= len(ix.levels) {
		res.BucketWidth = ix.levels[lod-1].width
	}
	return res
}

// clampWindow folds a request onto the trace's span: no data lives
// outside [tmin, tmax], so shrinking the window to [tmin, tmax+1]
// changes no answer while keeping the bucket-index arithmetic in
// selectBuckets free of int64 overflow for adversarial endpoints
// (t1 = MaxInt64 would otherwise wrap the rounded-up bucket count
// negative and drop every bucket). A window entirely outside the span
// clamps to an empty interval, which both query paths answer as empty.
func clampWindow(q Window, tmin, tmax int64) Window {
	if q.T0 < tmin {
		q.T0 = tmin
	}
	if q.T1 > tmax+1 {
		q.T1 = tmax + 1
	}
	return q
}

// clampLOD folds a requested LOD onto what the pyramid offers: 0 stays
// raw events, anything deeper than the coarsest level clamps to it.
func clampLOD(lod, nlevels int) int {
	if lod <= 0 {
		return 0
	}
	if lod > nlevels {
		lod = nlevels
	}
	if lod < 1 {
		lod = 1 // a positive request against an empty pyramid
	}
	return lod
}

// queryPyramid selects the level res.LOD-1 buckets overlapping [T0, T1).
func (ix *TimeIndex) queryPyramid(q Window, res *WindowResult) {
	if len(ix.levels) == 0 {
		return
	}
	lvl := ix.levels[res.LOD-1]
	res.Buckets = selectBuckets(lvl, ix.TMin, q)
}

// selectBuckets is the shared bucket-window intersection used by both
// the indexed and the reference paths: identical math is what makes the
// differential suite meaningful.
func selectBuckets(lvl pyramidLevel, tmin int64, q Window) []WindowBucket {
	w := lvl.width
	if w <= 0 || len(lvl.buckets) == 0 || q.T1 <= q.T0 {
		return nil
	}
	i0 := (q.T0 - tmin) / w
	if q.T0 < tmin {
		i0 = 0
	}
	if i0 < 0 {
		i0 = 0
	}
	i1 := (q.T1 - tmin + w - 1) / w // first bucket index past the window
	if i1 > int64(len(lvl.buckets)) {
		i1 = int64(len(lvl.buckets))
	}
	if i0 >= i1 {
		return nil
	}
	out := make([]WindowBucket, 0, i1-i0)
	for i := i0; i < i1; i++ {
		out = append(out, WindowBucket{
			T0:            tmin + i*w,
			T1:            tmin + (i+1)*w,
			PyramidBucket: lvl.buckets[i],
		})
	}
	return out
}

// addEvent appends the record, stamped ts, when it falls inside the window.
func (res *WindowResult) addEvent(q Window, ts int64, r PhysicalRecord) {
	if ts >= q.T0 && ts < q.T1 {
		res.Events = append(res.Events, WindowEvent{TS: ts, Kind: r.Kind, BufBytes: r.BufBytes, SrcPE: r.SrcPE, DstPE: r.DstPE})
	}
}

// finishEvents applies the deterministic postlude shared by both query
// paths: a stable sort by timestamp over file-order events, then the
// MaxEvents cap. Stability means ties (same cycle on different PEs)
// keep file order, so indexed and reference results are byte-identical.
func finishEvents(res *WindowResult, q Window) {
	sort.SliceStable(res.Events, func(i, j int) bool { return res.Events[i].TS < res.Events[j].TS })
	if q.MaxEvents > 0 && len(res.Events) > q.MaxEvents {
		res.Events = res.Events[:q.MaxEvents]
		res.Truncated = true
	}
}

// physicalClockDomain applies the clock-domain rule to an in-memory Set.
func physicalClockDomain(s *Set) ClockDomain {
	var rule clockRule
	for _, recs := range s.Physical {
		for _, r := range recs {
			rule.see(r)
		}
	}
	return rule.domain()
}

// QueryWindowSet is the exact brute-force reference: it walks the Set's
// physical records in PE-major order (the on-disk file order), stamps
// them under the same clock-domain rule as the index builder, and
// filters or folds every one. It exists for directories without a usable
// index - and as the oracle the differential tests hold TimeIndex.Query
// to. Only s.Physical is read, so a ReadPhysical Set serves.
func QueryWindowSet(s *Set, q Window) *WindowResult {
	domain := physicalClockDomain(s)
	res := &WindowResult{Domain: domain, DomainName: domain.String(), FullScan: true, TMax: -1}
	stamped := func(visit func(ts int64, r PhysicalRecord)) {
		var seq int64
		for pe := 0; pe < s.NumPEs; pe++ {
			for _, r := range s.Physical[pe] {
				visit(domain.stamp(seq, r), r)
				seq++
			}
		}
	}
	n := 0
	stamped(func(ts int64, _ PhysicalRecord) {
		if n == 0 {
			res.TMin, res.TMax = ts, ts
		}
		res.TMin, res.TMax = min(res.TMin, ts), max(res.TMax, ts)
		n++
	})
	if n == 0 {
		res.LOD = clampLOD(q.LOD, 0)
		return res
	}
	q = clampWindow(q, res.TMin, res.TMax)

	if q.LOD >= 1 {
		level0 := newLevel0(res.TMin, res.TMax)
		stamped(func(ts int64, r PhysicalRecord) { level0.add(res.TMin, ts, r) })
		levels := buildPyramid(level0)
		res.LOD = clampLOD(q.LOD, len(levels))
		lvl := levels[res.LOD-1]
		res.BucketWidth = lvl.width
		res.Buckets = selectBuckets(lvl, res.TMin, q)
		return res
	}

	stamped(func(ts int64, r PhysicalRecord) { res.addEvent(q, ts, r) })
	finishEvents(res, q)
	return res
}

// QueryWindow answers q against a trace directory, using the time index
// when one is present, valid, and fresh, and falling back to the exact
// full-scan reference otherwise (no index, torn or stale sidecars). The
// fallback reads the physical trace tolerantly: a torn or corrupt record
// is skipped.
func QueryWindow(dir string, q Window) (*WindowResult, error) {
	if ix, err := LoadTimeIndex(dir); err == nil {
		if res, err := ix.Query(dir, q); err == nil {
			return res, nil
		}
	}
	s, _, err := ReadPhysical(dir, ReadOptions{Tolerant: true})
	if err != nil {
		return nil, err
	}
	if !s.Config.Physical {
		return nil, fmt.Errorf("trace: %s has no physical trace to query", dir)
	}
	return QueryWindowSet(s, q), nil
}
