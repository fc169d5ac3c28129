package trace

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
