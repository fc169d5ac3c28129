package trace

import (
	"path/filepath"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/stats"
)

// Source is what the visualization layer actually needs from a trace:
// the aggregates behind the paper's plots, not the records. Both *Set
// (full records in memory) and *Summary (streaming aggregation, O(PEs^2)
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

// Set's Source implementation (LogicalMatrix, PhysicalMatrix and
// PAPITotalsPerPE live in analysis.go).

// Shape returns the PE count and PEs-per-node layout.
func (s *Set) Shape() (int, int) { return s.NumPEs, s.PEsPerNode }

// TraceConfig returns the run's trace configuration.
func (s *Set) TraceConfig() Config { return s.Config }

// OverallRecords returns the per-PE cycle breakdowns, sorted by PE.
func (s *Set) OverallRecords() []OverallRecord { return normalizeOverall(s.Overall) }

// Summary is the streaming-aggregation view of a trace: everything the
// heatmap/violin/bar/overall plots consume, folded record by record
// during the scan. Where a Set costs O(records) memory, a Summary costs
// O(PEs^2) - the difference between gigabytes and kilobytes at the
// paper's Section VI trace sizes.
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
}

// Shape returns the PE count and PEs-per-node layout.
func (m *Summary) Shape() (int, int) { return m.NumPEs, m.PEsPerNode }

// TraceConfig returns the run's trace configuration.
func (m *Summary) TraceConfig() Config { return m.Config }

// LogicalMatrix returns the pre-aggregation send matrix (zero matrix
// when no logical trace was found).
func (m *Summary) LogicalMatrix() Matrix {
	if m.Logical == nil {
		return NewMatrix(m.NumPEs)
	}
	return m.Logical
}

// PhysicalMatrix returns the data-movement buffer matrix (local_send +
// nonblock_send; progress events would double-count).
func (m *Summary) PhysicalMatrix() Matrix {
	out := NewMatrix(m.NumPEs)
	for _, kind := range []conveyor.SendKind{conveyor.LocalSend, conveyor.NonblockSend} {
		addMatrix(out, m.Physical[kind])
	}
	return out
}

// PhysicalMatrixOf returns the matrix for a single send kind.
func (m *Summary) PhysicalMatrixOf(kind conveyor.SendKind) Matrix {
	out := NewMatrix(m.NumPEs)
	for i, row := range m.Physical[kind] {
		copy(out[i], row)
	}
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

// PAPITotalsPerPE returns one configured event's per-PE totals (zeros
// for an unconfigured event).
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

// Summary folds an in-memory Set into its aggregate view.
func (s *Set) Summary() *Summary {
	m := &Summary{
		NumPEs:     s.NumPEs,
		PEsPerNode: s.PEsPerNode,
		Config:     s.Config,
		Segments:   s.Segments,
		Overall:    normalizeOverall(s.Overall),
	}
	if s.Config.Logical {
		m.Logical = s.LogicalMatrix()
		if s.Config.Aggregate {
			m.MsgBytes = s.MsgBytes
		} else {
			for _, recs := range s.Logical {
				for _, r := range recs {
					m.MsgBytes.Observe(int64(r.MsgSize))
				}
			}
		}
	}
	if s.Config.Physical {
		m.Physical = map[conveyor.SendKind]Matrix{}
		for kind, count := range s.PhysicalKindCounts() {
			if count > 0 {
				m.Physical[kind] = s.PhysicalMatrixOf(kind)
			}
		}
	}
	if n := len(s.Config.PAPIEvents); n > 0 {
		m.PAPITotals = make([][]int64, n)
		for i, ev := range s.Config.PAPIEvents {
			m.PAPITotals[i] = s.PAPITotalsPerPE(ev)
		}
	}
	return m
}

// summaryPartial is one worker's accumulation state during ReadSummary.
// Everything in it merges commutatively (exact integer sums), so the
// scheduling-dependent assignment of files to workers cannot change the
// merged result (DESIGN.md §10).
type summaryPartial struct {
	logical Matrix
	phys    map[conveyor.SendKind]Matrix
	papi    [][]int64
	msg     stats.Stream
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
// record into per-worker partial matrices, merged afterwards by exact
// integer addition. opts.Tolerant has ReadSetLive semantics; the skipped
// count matches what ReadSetOptions would report for the same directory.
func ReadSummary(dir string, opts ReadOptions) (*Summary, int, error) {
	md, err := readMeta(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, 0, err
	}
	npes, nEvents, scale := md.npes, len(md.events), int64(md.sample)
	m := &Summary{
		NumPEs:     npes,
		PEsPerNode: md.perNode,
		Config:     md.config(),
		Segments:   make([][]SegmentRecord, npes),
	}
	var overall cell[OverallRecord]
	// One allocation per worker: partials packed into one array would
	// bounce a cache line between workers on every record.
	partials := make([]*summaryPartial, opts.poolSize(npes))
	for i := range partials {
		partials[i] = &summaryPartial{}
	}
	have, skipped, err := walk(dir, md, opts, consumer{
		logical: func(w, _ int) func(LogicalRecord) {
			p := partials[w]
			if p.logical == nil {
				p.logical = NewMatrix(npes)
			}
			return func(r LogicalRecord) {
				p.logical[r.SrcPE][r.DstPE] += scale
				p.msg.Observe(int64(r.MsgSize))
			}
		},
		papi: func(w, pe int) func(PAPIRecord) {
			p := partials[w]
			if p.papi == nil {
				p.papi = newPAPITotals(nEvents, npes)
			}
			return func(r PAPIRecord) {
				for ev := 0; ev < nEvents && ev < len(r.Counters); ev++ {
					p.papi[ev][pe] += r.Counters[ev]
				}
			}
		},
		overall: func(_, _ int) func(OverallRecord) { return overall.add() },
		physical: func(w, _ int) func(PhysicalRecord) {
			p := partials[w]
			if p.phys == nil {
				p.phys = map[conveyor.SendKind]Matrix{}
			}
			return func(r PhysicalRecord) {
				mat := p.phys[r.Kind]
				if mat == nil {
					mat = NewMatrix(npes)
					p.phys[r.Kind] = mat
				}
				mat[r.SrcPE][r.DstPE]++
			}
		},
		segments: func(_, _ int) func(SegmentRecord) {
			return func(r SegmentRecord) { m.Segments[r.PE] = append(m.Segments[r.PE], r) }
		},
	})
	if err != nil {
		return nil, 0, err
	}
	m.Config.Logical, m.Config.Overall, m.Config.Physical = have.logical, have.overall, have.physical
	m.Overall = normalizeOverall(overall.recs)
	// The result has the shape (*Set).Summary gives the same directory: a
	// feature that was found reads as an all-zero aggregate, not as
	// absent, even when its files held no records.
	if have.logical {
		m.Logical = NewMatrix(npes)
	}
	if have.physical {
		m.Physical = map[conveyor.SendKind]Matrix{}
	}
	if nEvents > 0 {
		m.PAPITotals = newPAPITotals(nEvents, npes)
	}
	// Merge the worker partials: exact integer sums, any order.
	for _, p := range partials {
		if have.logical {
			addMatrix(m.Logical, p.logical)
		}
		m.MsgBytes.Merge(p.msg)
		for kind, mat := range p.phys {
			if m.Physical[kind] == nil {
				m.Physical[kind] = NewMatrix(npes)
			}
			addMatrix(m.Physical[kind], mat)
		}
		for ev := range p.papi {
			for pe, v := range p.papi[ev] {
				m.PAPITotals[ev][pe] += v
			}
		}
	}
	return m, skipped, nil
}
