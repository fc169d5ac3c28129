package trace

import (
	"path/filepath"
	"sync"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/stats"
)

// Source is what the visualization layer actually needs from a trace:
// the aggregates behind the paper's plots, not the records. Both *Set
// (full records in memory) and *Summary (folded aggregates, O(PEs^2)
// memory regardless of trace size) implement it, so every plot
// constructor accepts either.
type Source interface {
	// Shape returns the PE count and PEs-per-node layout.
	Shape() (numPEs, pesPerNode int)
	// TraceConfig returns the run's trace configuration.
	TraceConfig() Config
	// LogicalMatrix is the pre-aggregation send-count matrix (sampling
	// scaled back to true counts).
	LogicalMatrix() Matrix
	// PhysicalMatrix is the post-aggregation buffer-count matrix
	// (data-movement events only).
	PhysicalMatrix() Matrix
	// PAPITotalsPerPE sums one configured event per PE.
	PAPITotalsPerPE(ev papi.Event) []int64
	// OverallRecords returns the per-PE cycle breakdowns, sorted by PE.
	OverallRecords() []OverallRecord
}

// Set's Source implementation, and its other aggregate accessors: all of
// them answer from the set's Summary.

// Shape returns the PE count and PEs-per-node layout.
func (s *Set) Shape() (int, int) { return s.NumPEs, s.PEsPerNode }

// TraceConfig returns the run's trace configuration.
func (s *Set) TraceConfig() Config { return s.Config }

// OverallRecords returns the per-PE cycle breakdowns, sorted by PE.
func (s *Set) OverallRecords() []OverallRecord { return normalizeOverall(s.Overall) }

// LogicalMatrix is the Summary's; the caller must not modify it.
func (s *Set) LogicalMatrix() Matrix { return s.Summary().LogicalMatrix() }

// PhysicalMatrix is the Summary's; the caller must not modify it.
func (s *Set) PhysicalMatrix() Matrix { return s.Summary().PhysicalMatrix() }

// PhysicalMatrixOf returns a copy of the matrix for a single send kind.
func (s *Set) PhysicalMatrixOf(kind conveyor.SendKind) Matrix {
	return s.Summary().PhysicalMatrixOf(kind)
}

// PhysicalKindCounts returns the number of physical events per send kind.
func (s *Set) PhysicalKindCounts() map[conveyor.SendKind]int64 {
	return s.Summary().PhysicalKindCounts()
}

// PAPITotalsPerPE returns a copy of one configured event's per-PE totals.
func (s *Set) PAPITotalsPerPE(ev papi.Event) []int64 { return s.Summary().PAPITotalsPerPE(ev) }

// Summary is the aggregate view of a trace: everything the
// heatmap/violin/bar/overall plots consume, and the one place that knows
// how a record folds into it (DESIGN.md §10 "One aggregate"). Where a
// Set costs O(records) memory, a Summary costs O(PEs^2) - the difference
// between gigabytes and kilobytes at the paper's Section VI trace sizes.
//
// Every producer - ReadSummary's per-worker scans, an aggregate-mode
// collector, a Set folding its own record slices - fills partials (a
// literal with NumPEs and a defaulted Config; a matrix appears with the
// first record of its kind) through the add/fold methods below and ends
// in newSummary, which merges them by exact integer addition.
type Summary struct {
	NumPEs     int
	PEsPerNode int
	Config     Config

	// Logical is the pre-aggregation send matrix, sampling already
	// scaled. Nil when the trace has no logical records.
	Logical Matrix
	// Physical holds one buffer-count matrix per send kind that
	// occurred.
	Physical map[conveyor.SendKind]Matrix
	// PAPITotals[ev][pe] sums counter ev over PE pe's records, parallel
	// to Config.PAPIEvents.
	PAPITotals [][]int64
	// Overall is the per-PE cycle breakdown, sorted by PE.
	Overall []OverallRecord
	// Segments[pe] holds PE pe's named user segments.
	Segments [][]SegmentRecord
	// MsgBytes accumulates logical payload-size statistics.
	MsgBytes stats.Stream

	// movement is the data-movement matrix three plot kinds share,
	// summed once by newSummary. Nil on a Summary literal, which sums
	// per call.
	movement Matrix
}

// newSummary is the constructor every producer ends in: it merges the
// partials (nil ones are skipped) into a Summary of the given shape. A
// feature cfg enables reads as an all-zero aggregate, not as absent,
// even when it produced no records.
func newSummary(npes, perNode int, cfg Config, overall []OverallRecord, segments [][]SegmentRecord, partials ...*Summary) *Summary {
	m := &Summary{
		NumPEs:     npes,
		PEsPerNode: perNode,
		Config:     cfg,
		Overall:    normalizeOverall(overall),
		Segments:   segments,
	}
	if cfg.Logical {
		m.Logical = NewMatrix(npes)
	}
	if cfg.Physical {
		m.Physical = map[conveyor.SendKind]Matrix{}
	}
	if n := len(cfg.PAPIEvents); n > 0 {
		m.PAPITotals = newPAPITotals(n, npes)
	}
	for _, p := range partials {
		m.merge(p)
	}
	if m.Physical != nil {
		m.movement = m.dataMovement()
	}
	return m
}

// addLogical folds n sampled logical records src -> dst: one sampled
// record stands for Config.LogicalSample sends.
func (m *Summary) addLogical(src, dst int, n int64) {
	if m.Logical == nil {
		m.Logical = NewMatrix(m.NumPEs)
	}
	m.Logical[src][dst] += n * int64(m.Config.LogicalSample)
}

// physicalOf returns kind's buffer-count matrix, created on demand.
func (m *Summary) physicalOf(kind conveyor.SendKind) Matrix {
	mat := m.Physical[kind]
	if mat == nil {
		if m.Physical == nil {
			m.Physical = map[conveyor.SendKind]Matrix{}
		}
		mat = NewMatrix(m.NumPEs)
		m.Physical[kind] = mat
	}
	return mat
}

// addPAPI folds counter deltas, parallel to Config.PAPIEvents, into PE
// pe's totals.
func (m *Summary) addPAPI(pe int, counters []int64) {
	if m.PAPITotals == nil {
		m.PAPITotals = newPAPITotals(len(m.Config.PAPIEvents), m.NumPEs)
	}
	for ev := 0; ev < len(m.PAPITotals) && ev < len(counters); ev++ {
		m.PAPITotals[ev][pe] += counters[ev]
	}
}

// foldLogical folds one sampled logical record src -> dst of size bytes.
func (m *Summary) foldLogical(src, dst, size int) {
	m.addLogical(src, dst, 1)
	m.MsgBytes.Observe(int64(size))
}

// foldSends folds PE pe's packed logical sends, or a run of them.
func (m *Summary) foldSends(pe int, run []LogicalSend) {
	for _, r := range run {
		m.foldLogical(pe, int(r.DstPE), int(r.MsgSize))
	}
}

// foldCounters folds PE pe's PAPI counter column, k words per record.
func (m *Summary) foldCounters(pe, k int, col []int64) {
	for ; k > 0 && len(col) >= k; col = col[k:] {
		m.addPAPI(pe, col[:k])
	}
}

func (m *Summary) foldPhysical(r PhysicalRecord) { m.physicalOf(r.Kind)[r.SrcPE][r.DstPE]++ }

// merge adds a partial of the same shape into m: exact integer sums, so
// neither the assignment of records to partials nor the order they
// merge in can change the result (DESIGN.md §10).
func (m *Summary) merge(p *Summary) {
	if p == nil {
		return
	}
	if p.Logical != nil {
		if m.Logical == nil {
			m.Logical = NewMatrix(m.NumPEs)
		}
		addMatrix(m.Logical, p.Logical)
	}
	m.MsgBytes.Merge(p.MsgBytes)
	for kind, mat := range p.Physical {
		addMatrix(m.physicalOf(kind), mat)
	}
	for ev := 0; ev < len(m.PAPITotals) && ev < len(p.PAPITotals); ev++ {
		for pe, v := range p.PAPITotals[ev] {
			m.PAPITotals[ev][pe] += v
		}
	}
}

// dataMovement sums the kinds that move a buffer: local_send and
// nonblock_send. A nonblock_progress event signals completion of a
// nonblock_send and would count it twice.
func (m *Summary) dataMovement() Matrix {
	out := NewMatrix(m.NumPEs)
	addMatrix(out, m.Physical[conveyor.LocalSend])
	addMatrix(out, m.Physical[conveyor.NonblockSend])
	return out
}

// Shape returns the PE count and PEs-per-node layout.
func (m *Summary) Shape() (int, int) { return m.NumPEs, m.PEsPerNode }

// TraceConfig returns the run's trace configuration.
func (m *Summary) TraceConfig() Config { return m.Config }

// LogicalMatrix returns the pre-aggregation send matrix (zero matrix
// when no logical trace was found). The caller must not modify it.
func (m *Summary) LogicalMatrix() Matrix {
	if m.Logical == nil {
		return NewMatrix(m.NumPEs)
	}
	return m.Logical
}

// PhysicalMatrix returns the data-movement buffer matrix. The caller
// must not modify it.
func (m *Summary) PhysicalMatrix() Matrix {
	if m.movement == nil {
		return m.dataMovement()
	}
	return m.movement
}

// PhysicalMatrixOf returns a copy of the matrix for a single send kind,
// used by the per-mechanism heatmaps (Figures 8-9 separate local_send
// from nonblock_send).
func (m *Summary) PhysicalMatrixOf(kind conveyor.SendKind) Matrix {
	out := NewMatrix(m.NumPEs)
	addMatrix(out, m.Physical[kind])
	return out
}

// PhysicalKindCounts returns the number of physical events per kind.
func (m *Summary) PhysicalKindCounts() map[conveyor.SendKind]int64 {
	out := map[conveyor.SendKind]int64{}
	for kind, mat := range m.Physical {
		if t := mat.Total(); t > 0 {
			out[kind] = t
		}
	}
	return out
}

// PAPITotalsPerPE returns a copy of one configured event's per-PE
// totals (zeros for an unconfigured event): the data behind the paper's
// Figure 10/11 bar graphs ("total number of instructions per PE").
func (m *Summary) PAPITotalsPerPE(ev papi.Event) []int64 {
	out := make([]int64, m.NumPEs)
	for i, e := range m.Config.PAPIEvents {
		if e == ev && i < len(m.PAPITotals) {
			copy(out, m.PAPITotals[i])
			break
		}
	}
	return out
}

// OverallRecords returns the per-PE cycle breakdowns, sorted by PE.
func (m *Summary) OverallRecords() []OverallRecord { return m.Overall }

// summaryMemo is what copies of a Set share, so it lives behind a
// pointer: the Summary, folded on first use; for a set whose collector ran
// in aggregate mode, the partial that collector folded sends into in
// place of the records it did not keep; and for one it recorded, the send
// shards it sealed (collector.go).
type summaryMemo struct {
	once      sync.Once
	sum       *Summary
	collected *Summary
	sealed    []sealedPE
}

// Summary returns the set's aggregate view, folded from the record
// slices once. A Set is immutable once assembled (Collector.Set after
// every Close, ReadSet's result); a set built by hand must be complete
// before its first Summary or matrix accessor call.
func (s *Set) Summary() *Summary {
	memo := s.memo
	if memo == nil { // a Set literal rather than NewSet: nothing to share, folds per call
		memo = new(summaryMemo)
	}
	memo.once.Do(func() {
		p := &Summary{NumPEs: s.NumPEs, Config: s.Config.withDefaults()}
		for pe, recs := range s.Logical {
			p.foldSends(pe, recs)
		}
		for pe, col := range s.PAPICounters {
			p.foldCounters(pe, len(s.Config.PAPIEvents), col)
		}
		for _, recs := range s.Physical {
			for _, r := range recs {
				p.foldPhysical(r)
			}
		}
		memo.sum = newSummary(s.NumPEs, s.PEsPerNode, s.Config, s.Overall, s.Segments, p, memo.collected)
	})
	return memo.sum
}

// addMatrix adds src (nil, or dst's shape) into dst cell by cell.
func addMatrix(dst, src Matrix) {
	for i, row := range src {
		for j, v := range row {
			dst[i][j] += v
		}
	}
}

func newPAPITotals(nEvents, npes int) [][]int64 {
	out := make([][]int64, nEvents)
	for i := range out {
		out[i] = make([]int64, npes)
	}
	return out
}

// ReadSummary scans a trace directory into a Summary without ever
// materializing record slices: the walker plus yields that fold every
// record into per-worker partials. With opts.Tolerant a malformed record
// is skipped and counted; the skipped count matches what a tolerant
// readSet reports for the same directory.
func ReadSummary(dir string, opts ReadOptions) (*Summary, int, error) {
	md, err := readMeta(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, 0, err
	}
	cfg := md.config()
	segments := make([][]SegmentRecord, md.npes)
	var overall cell[OverallRecord]
	// One allocation per worker: partials packed into one array would
	// bounce a cache line between workers on every record.
	partials := make([]*Summary, opts.poolSize(md.npes))
	for i := range partials {
		partials[i] = &Summary{NumPEs: md.npes, Config: cfg}
	}
	have, skipped, err := walk(dir, md, opts, consumer{
		logical: func(w, pe int) func([]LogicalSend) {
			p := partials[w]
			return func(run []LogicalSend) { p.foldSends(pe, run) }
		},
		papi: func(w, pe int) func([]PAPISend, []int64) {
			p, k := partials[w], len(md.events)
			return func(_ []PAPISend, col []int64) { p.foldCounters(pe, k, col) }
		},
		overall:  func(_, _ int) func(OverallRecord) { return overall.add() },
		physical: func(w, _ int) func(PhysicalRecord) { return partials[w].foldPhysical },
		segments: func(_, _ int) func(SegmentRecord) {
			return func(r SegmentRecord) { segments[r.PE] = append(segments[r.PE], r) }
		},
	})
	if err != nil {
		return nil, 0, err
	}
	cfg.Logical, cfg.Overall, cfg.Physical = have.logical, have.overall, have.physical
	return newSummary(md.npes, md.perNode, cfg, overall.recs, segments, partials...), skipped, nil
}
