package trace

import (
	"sync"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// Matrix is a square send-count matrix: Matrix[src][dst] = count. It is
// the data behind the paper's heatmaps; the visualizer appends totals as
// the last row (recv per destination) and last column (send per source).
type Matrix [][]int64

// NewMatrix allocates an n x n zero matrix.
func NewMatrix(n int) Matrix {
	m := make(Matrix, n)
	cells := make([]int64, n*n)
	for i := range m {
		m[i], cells = cells[:n], cells[n:]
	}
	return m
}

// SendTotals returns per-source totals (the heatmap's last column).
func (m Matrix) SendTotals() []int64 {
	out := make([]int64, len(m))
	for i, row := range m {
		for _, v := range row {
			out[i] += v
		}
	}
	return out
}

// RecvTotals returns per-destination totals (the heatmap's last row).
func (m Matrix) RecvTotals() []int64 {
	out := make([]int64, len(m))
	for _, row := range m {
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// Total returns the sum of all cells.
func (m Matrix) Total() int64 {
	var t int64
	for _, row := range m {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Max returns the largest cell value.
func (m Matrix) Max() int64 {
	var mx int64
	for _, row := range m {
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
	}
	return mx
}

// AggregateNodes folds a PE-level matrix into a node-level matrix
// (perNode PEs per node): the "hotspots of node from the network sends"
// view of the paper's Section III-D visualization goals.
func (m Matrix) AggregateNodes(perNode int) Matrix {
	if perNode <= 0 {
		perNode = 1
	}
	nodes := (len(m) + perNode - 1) / perNode
	out := NewMatrix(nodes)
	for i, row := range m {
		for j, v := range row {
			out[i/perNode][j/perNode] += v
		}
	}
	return out
}

// LogicalMatrix builds the pre-aggregation send-count matrix from the
// logical trace, scaling sampled traces back to true counts. In
// aggregate mode the counts were folded at collection time and only the
// scaling remains.
func (s *Set) LogicalMatrix() Matrix {
	m := NewMatrix(s.NumPEs)
	scale := int64(s.Config.LogicalSample)
	if scale <= 0 {
		scale = 1
	}
	if s.Config.Aggregate {
		for i, row := range s.LogicalAgg {
			for j, v := range row {
				m[i][j] = v * scale
			}
		}
		return m
	}
	for _, recs := range s.Logical {
		for _, r := range recs {
			m[r.SrcPE][r.DstPE] += scale
		}
	}
	return m
}

// PhysicalMatrix builds the post-aggregation buffer-count matrix from the
// physical trace. Only data-movement events (local_send, nonblock_send)
// count as buffers; nonblock_progress events signal completion of a
// nonblock_send and would double-count it.
func (s *Set) PhysicalMatrix() Matrix {
	m := NewMatrix(s.NumPEs)
	if s.Config.Aggregate {
		for _, kind := range []conveyor.SendKind{conveyor.LocalSend, conveyor.NonblockSend} {
			for i, row := range s.PhysicalAgg[kind] {
				for j, v := range row {
					m[i][j] += v
				}
			}
		}
		return m
	}
	for _, recs := range s.Physical {
		for _, r := range recs {
			if r.Kind == conveyor.LocalSend || r.Kind == conveyor.NonblockSend {
				m[r.SrcPE][r.DstPE]++
			}
		}
	}
	return m
}

// PhysicalMatrixOf builds the matrix for a single send kind, used by the
// per-mechanism heatmaps (Figures 8-9 separate local_send from
// nonblock_send).
func (s *Set) PhysicalMatrixOf(kind conveyor.SendKind) Matrix {
	m := NewMatrix(s.NumPEs)
	if s.Config.Aggregate {
		for i, row := range s.PhysicalAgg[kind] {
			copy(m[i], row)
		}
		return m
	}
	for _, recs := range s.Physical {
		for _, r := range recs {
			if r.Kind == kind {
				m[r.SrcPE][r.DstPE]++
			}
		}
	}
	return m
}

// PhysicalKindCounts returns the number of physical events per send kind.
func (s *Set) PhysicalKindCounts() map[conveyor.SendKind]int64 {
	out := map[conveyor.SendKind]int64{}
	if s.Config.Aggregate {
		for kind, m := range s.PhysicalAgg {
			if t := m.Total(); t > 0 {
				out[kind] = t
			}
		}
		return out
	}
	for _, recs := range s.Physical {
		for _, r := range recs {
			out[r.Kind]++
		}
	}
	return out
}

// PAPITotalsPerPE sums one event's counter across every PAPI record of
// each PE: the data behind the paper's Figure 10/11 bar graphs ("total
// number of instructions per PE").
func (s *Set) PAPITotalsPerPE(ev papi.Event) []int64 {
	out := make([]int64, s.NumPEs)
	for i, e := range s.Config.PAPIEvents {
		if e != ev {
			continue
		}
		if s.Config.Aggregate {
			if i < len(s.PAPIAgg) {
				copy(out, s.PAPIAgg[i])
			}
		} else {
			copy(out, s.papiTotals()[i])
		}
		break
	}
	return out
}

// papiTotalsMemo holds every configured event's per-PE totals, summed
// in one walk over the PAPI records the first time any event is asked
// for: a summary and the -lp plots ask once per event, and the walk (not
// the sum) is what costs at millions of records. It lives behind a
// pointer so that copies of a Set share it.
type papiTotalsMemo struct {
	once    sync.Once
	byEvent [][]int64 // [event index][pe]
}

// papiTotals returns the memoized totals of a record-mode set. A Set is
// immutable once assembled (Collector.Set after every Close, ReadSet's
// result); a set built by hand must be complete before its first
// PAPITotalsPerPE call.
func (s *Set) papiTotals() [][]int64 {
	if s.papiMemo == nil { // a Set literal rather than NewSet: nothing to share
		return s.sumPAPI()
	}
	s.papiMemo.once.Do(func() { s.papiMemo.byEvent = s.sumPAPI() })
	return s.papiMemo.byEvent
}

func (s *Set) sumPAPI() [][]int64 {
	totals := newPAPITotals(len(s.Config.PAPIEvents), s.NumPEs)
	for pe, recs := range s.PAPI {
		for i := range recs {
			for ev, v := range recs[i].Counters {
				if ev < len(totals) {
					totals[ev][pe] += v
				}
			}
		}
	}
	return totals
}

// OverallByPE returns the breakdown records indexed by PE (nil entries
// for PEs without a record).
func (s *Set) OverallByPE() []*OverallRecord {
	out := make([]*OverallRecord, s.NumPEs)
	for i := range s.Overall {
		r := s.Overall[i]
		if r.PE >= 0 && r.PE < s.NumPEs {
			out[r.PE] = &r
		}
	}
	return out
}

// MaxOverMin returns max(vals)/min over positive entries; it is the
// imbalance factor quoted throughout the paper's case study ("PE0 suffers
// an imbalance of up to ~5x"). Returns 0 when no positive entries exist.
func MaxOverMin(vals []int64) float64 {
	var mx int64
	mn := int64(-1)
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		if v > mx {
			mx = v
		}
		if mn < 0 || v < mn {
			mn = v
		}
	}
	if mn <= 0 {
		return 0
	}
	return float64(mx) / float64(mn)
}

// MaxOverMean returns max(vals) / mean(vals), an imbalance factor robust
// to near-zero minima (the paper's footnote 1 notes some PEs report
// counts orders of magnitude below the peak).
func MaxOverMean(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum, mx int64
	for _, v := range vals {
		sum += v
		if v > mx {
			mx = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(vals))
	return float64(mx) / mean
}
