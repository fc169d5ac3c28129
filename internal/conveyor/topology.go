package conveyor

import (
	"fmt"

	"actorprof/internal/sim"
)

// Topology selects the conveyor's routing scheme. The paper (Section
// III-C) names the three Conveyors topologies: 1D Linear, 2D Mesh, and
// 3D Cube; routes are static for every source/destination pair.
type Topology int

// Topology choices.
const (
	// TopologyAuto picks Linear on one node, Mesh on 2-3 nodes, and
	// Cube once four or more nodes make a two-dimensional node grid
	// worthwhile - mirroring how bale sizes its conveyors.
	TopologyAuto Topology = iota
	// TopologyLinear exchanges directly between every PE pair.
	TopologyLinear
	// TopologyMesh routes in two hops: along the row (own node, local
	// copy) to the PE with the destination's local rank, then along the
	// column (same local rank, non-blocking put) to the destination.
	TopologyMesh
	// TopologyCube routes in up to three hops: a local hop to align the
	// local rank, then two inter-node hops across a row x column grid
	// of nodes.
	TopologyCube
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case TopologyAuto:
		return "auto"
	case TopologyLinear:
		return "1D Linear"
	case TopologyMesh:
		return "2D Mesh"
	case TopologyCube:
		return "3D Cube"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// topology is the routing strategy: the static next hop per destination
// and the set of legal hop targets (which bounds buffer memory - the
// "memory frugal" property of Conveyors).
type topology interface {
	// nextHop returns the next PE on the static route from me to dst
	// (dst itself when one hop remains). me != dst handling only; the
	// conveyor treats dst == me as a regular single local hop.
	nextHop(me, dst int) int
	// targets returns the PEs me may transfer buffers to, ascending, in
	// time proportional to the nodes of the machine, not its PEs: every
	// PE asks for each of its peers' lists when it builds a conveyor.
	targets(me int) []int
	// kind echoes the Topology enum value.
	kind() Topology
}

// resolveTopology picks and constructs the routing strategy.
func resolveTopology(choice Topology, m sim.Machine) (topology, error) {
	nodes := m.NumNodes()
	if choice == TopologyAuto {
		switch {
		case nodes == 1:
			choice = TopologyLinear
		case nodes < 4:
			choice = TopologyMesh
		default:
			choice = TopologyCube
		}
	}
	switch choice {
	case TopologyLinear:
		return linearTopo{m: m}, nil
	case TopologyMesh:
		return meshTopo{m: m}, nil
	case TopologyCube:
		rows, cols := gridShape(nodes)
		if rows == 1 {
			// A 1 x C node grid degenerates to the mesh; use it so the
			// row-hop stage does not vanish into zero-length routes.
			return meshTopo{m: m}, nil
		}
		return cubeTopo{m: m, rows: rows, cols: cols}, nil
	default:
		return nil, fmt.Errorf("conveyor: unknown topology %v", choice)
	}
}

// gridShape factors n nodes into the most square rows x cols grid.
func gridShape(n int) (rows, cols int) {
	rows = 1
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return rows, n / rows
}

// linearTopo: direct exchange between all PEs (single-node runs; all
// transfers are local_send).
type linearTopo struct{ m sim.Machine }

func (t linearTopo) nextHop(me, dst int) int { return dst }

func (t linearTopo) targets(me int) []int {
	out := make([]int, t.m.NumPEs)
	for i := range out {
		out[i] = i
	}
	return out
}

func (t linearTopo) kind() Topology { return TopologyLinear }

// meshTopo: rows are nodes, columns are local-rank classes.
type meshTopo struct{ m sim.Machine }

func (t meshTopo) nextHop(me, dst int) int {
	if t.m.SameNode(me, dst) || t.m.LocalRank(me) == t.m.LocalRank(dst) {
		return dst // one row hop, or one column hop
	}
	// Row hop to the same-node PE sharing the destination's local rank.
	return t.m.NodeOf(me)*t.m.PEsPerNode + t.m.LocalRank(dst)
}

func (t meshTopo) targets(me int) []int {
	node, lrank, per := t.m.NodeOf(me), t.m.LocalRank(me), t.m.PEsPerNode
	out := make([]int, 0, per+t.m.NumNodes()-1)
	for n := 0; n < t.m.NumNodes(); n++ {
		if n != node {
			out = append(out, n*per+lrank) // my column's PE on node n
			continue
		}
		for l := 0; l < per; l++ { // my row: the whole node
			out = append(out, n*per+l)
		}
	}
	return out
}

func (t meshTopo) kind() Topology { return TopologyMesh }

// cubeTopo: nodes form a rows x cols grid; a PE's coordinate is
// (nodeRow, nodeCol, localRank). Routes go local-rank hop (local), then
// node-row hop, then node-column hop (both non-blocking inter-node
// puts), each stage skipped when already aligned.
type cubeTopo struct {
	m          sim.Machine
	rows, cols int
}

func (t cubeTopo) coords(pe int) (nr, nc, l int) {
	node := t.m.NodeOf(pe)
	return node / t.cols, node % t.cols, t.m.LocalRank(pe)
}

func (t cubeTopo) peOf(nr, nc, l int) int {
	return (nr*t.cols+nc)*t.m.PEsPerNode + l
}

func (t cubeTopo) nextHop(me, dst int) int {
	mr, mc, ml := t.coords(me)
	dr, dc, dl := t.coords(dst)
	switch {
	case mr == dr && mc == dc:
		// Same node: deliver directly (local hop).
		return dst
	case ml != dl:
		// Align the local rank within our node first (local hop).
		return t.peOf(mr, mc, dl)
	case mc != dc:
		// Cross the node row to the destination's column (remote hop).
		return t.peOf(mr, dc, dl)
	default:
		// Same column, same local rank: final remote hop down the
		// column.
		return dst
	}
}

func (t cubeTopo) targets(me int) []int {
	mr, mc, ml := t.coords(me)
	out := make([]int, 0, t.m.PEsPerNode+t.rows+t.cols-2)
	for nr := 0; nr < t.rows; nr++ {
		for nc := 0; nc < t.cols; nc++ {
			switch {
			case nr == mr && nc == mc: // own node (row of the cube)
				for l := 0; l < t.m.PEsPerNode; l++ {
					out = append(out, t.peOf(nr, nc, l))
				}
			case nr == mr || nc == mc: // same node-row or node-column, same local rank
				out = append(out, t.peOf(nr, nc, ml))
			}
		}
	}
	return out
}

func (t cubeTopo) kind() Topology { return TopologyCube }
