package conveyor

import (
	"math/rand"
	"sort"
	"testing"

	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

// Property-based route checks: for random machine shapes, every
// source/destination pair must follow a static route that (a) only ever
// moves to a PE in targets(cur) — the buffers a conveyor actually
// allocates — (b) terminates within the topology's hop bound (1D Linear
// 1 hop, 2D Mesh 2 hops, 3D Cube 3 hops), and (c) begins with an
// intra-node hop whenever Mesh/Cube routing must first align the local
// rank (that hop is the memcpy-through-shmem_ptr stage; an off-node
// first hop would silently turn it into network traffic).

// hopBound returns the maximum route length for a resolved topology.
func hopBound(k Topology) int {
	switch k {
	case TopologyLinear:
		return 1
	case TopologyMesh:
		return 2
	case TopologyCube:
		return 3
	}
	return 0
}

// randomMachine draws a machine shape with 1..12 nodes of 1..8 PEs.
func randomMachine(rnd *rand.Rand) sim.Machine {
	perNode := 1 + rnd.Intn(8)
	nodes := 1 + rnd.Intn(12)
	return sim.Machine{NumPEs: nodes * perNode, PEsPerNode: perNode}
}

// walkRoute follows topo's static route and returns the hop sequence,
// giving up (and failing the test) if it exceeds the bound.
func walkRoute(t *testing.T, topo topology, m sim.Machine, src, dst, bound int) []int {
	t.Helper()
	var hops []int
	cur := src
	for cur != dst {
		if len(hops) >= bound {
			t.Fatalf("machine %+v topo %v: route %d->%d exceeded %d hops (so far %v)",
				m, topo.kind(), src, dst, bound, hops)
		}
		next := topo.nextHop(cur, dst)
		if next == cur {
			t.Fatalf("machine %+v topo %v: route %d->%d stalled at %d", m, topo.kind(), src, dst, cur)
		}
		found := false
		for _, p := range topo.targets(cur) {
			if p == next {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("machine %+v topo %v: hop %d->%d not in targets(%d) = %v",
				m, topo.kind(), cur, next, cur, topo.targets(cur))
		}
		hops = append(hops, next)
		cur = next
	}
	return hops
}

func TestTopologyRoutePropertiesRandomShapes(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	choices := []Topology{TopologyAuto, TopologyLinear, TopologyMesh, TopologyCube}
	for trial := 0; trial < 60; trial++ {
		m := randomMachine(rnd)
		for _, choice := range choices {
			topo, err := resolveTopology(choice, m)
			if err != nil {
				t.Fatalf("machine %+v: resolving %v: %v", m, choice, err)
			}
			bound := hopBound(topo.kind())
			if bound == 0 {
				t.Fatalf("machine %+v: resolved to unexpected kind %v", m, topo.kind())
			}
			// Exhaustive on small worlds, sampled on large ones.
			pairs := m.NumPEs * m.NumPEs
			for i := 0; i < pairs && i < 400; i++ {
				var src, dst int
				if pairs <= 400 {
					src, dst = i/m.NumPEs, i%m.NumPEs
				} else {
					src, dst = rnd.Intn(m.NumPEs), rnd.Intn(m.NumPEs)
				}
				if src == dst {
					continue // self-sends bypass nextHop (single local hop)
				}
				hops := walkRoute(t, topo, m, src, dst, bound)
				// Rank-aligning first hops must stay on the source's node.
				if (topo.kind() == TopologyMesh || topo.kind() == TopologyCube) &&
					!m.SameNode(src, dst) && m.LocalRank(src) != m.LocalRank(dst) {
					if !m.SameNode(src, hops[0]) {
						t.Fatalf("machine %+v topo %v: route %d->%d first hop %d left the node",
							m, topo.kind(), src, dst, hops[0])
					}
				}
			}
		}
	}
}

// Targets must be ascending (the conveyor iterates them as its peer
// list) and must include the PE itself (self-sends buffer locally).
func TestTopologyTargetsSortedRandomShapes(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		m := randomMachine(rnd)
		for _, choice := range []Topology{TopologyLinear, TopologyMesh, TopologyCube} {
			topo, err := resolveTopology(choice, m)
			if err != nil {
				t.Fatal(err)
			}
			for me := 0; me < m.NumPEs; me++ {
				ts := topo.targets(me)
				if !sort.IntsAreSorted(ts) {
					t.Fatalf("machine %+v topo %v: targets(%d) not ascending: %v", m, topo.kind(), me, ts)
				}
				i := sort.SearchInts(ts, me)
				if i == len(ts) || ts[i] != me {
					t.Fatalf("machine %+v topo %v: targets(%d) = %v misses self", m, topo.kind(), me, ts)
				}
				for _, p := range ts {
					if p < 0 || p >= m.NumPEs {
						t.Fatalf("machine %+v topo %v: targets(%d) out of range: %v", m, topo.kind(), me, ts)
					}
				}
			}
		}
	}
}

// peerScanShapes is the grid the peer-only receive scan is checked on:
// single-node, square and non-square node counts, a prime node count
// (the 1 x C grid where Cube degenerates to Mesh), and one PE per node.
var peerScanShapes = []sim.Machine{
	{NumPEs: 1, PEsPerNode: 1},
	{NumPEs: 8, PEsPerNode: 8},
	{NumPEs: 8, PEsPerNode: 4},
	{NumPEs: 12, PEsPerNode: 4},   // 3 nodes: 1 x 3, cube -> mesh
	{NumPEs: 16, PEsPerNode: 4},   // 2 x 2
	{NumPEs: 24, PEsPerNode: 4},   // 6 nodes: 2 x 3
	{NumPEs: 21, PEsPerNode: 3},   // 7 nodes: 1 x 7, cube -> mesh
	{NumPEs: 40, PEsPerNode: 4},   // 10 nodes: 2 x 5
	{NumPEs: 36, PEsPerNode: 3},   // 12 nodes: 3 x 4
	{NumPEs: 5, PEsPerNode: 1},    // one PE per node
	{NumPEs: 64, PEsPerNode: 4},   // 16 nodes: 4 x 4
	{NumPEs: 256, PEsPerNode: 16}, // the scale-up shape
}

// receive() polls only c.peers = targets(me). That is exactly the set
// of channels that can carry inbound traffic iff the hop-target relation
// is symmetric (whoever may write to me is someone I may write to) and
// every hop a route takes lands in the sender's targets.
func TestTopologyInboundChannelsArePeers(t *testing.T) {
	for _, m := range peerScanShapes {
		for _, choice := range []Topology{TopologyLinear, TopologyMesh, TopologyCube} {
			topo, err := resolveTopology(choice, m)
			if err != nil {
				t.Fatalf("machine %+v: resolving %v: %v", m, choice, err)
			}
			isTarget := make([][]bool, m.NumPEs)
			for p := range isTarget {
				isTarget[p] = make([]bool, m.NumPEs)
				for _, q := range topo.targets(p) {
					isTarget[p][q] = true
				}
			}
			for p := 0; p < m.NumPEs; p++ {
				for q := 0; q < m.NumPEs; q++ {
					if isTarget[p][q] != isTarget[q][p] {
						t.Fatalf("machine %+v topo %v (asked %v): %d in targets(%d) is %v but %d in targets(%d) is %v",
							m, topo.kind(), choice, q, p, isTarget[p][q], p, q, isTarget[q][p])
					}
					if p != q && !isTarget[p][topo.nextHop(p, q)] {
						t.Fatalf("machine %+v topo %v (asked %v): nextHop(%d, %d) = %d is not in targets(%d)",
							m, topo.kind(), choice, p, q, topo.nextHop(p, q), p)
					}
				}
			}
		}
	}
}

// A done PE ships a partial stage-s buffer once its incoming channels of
// earlier stages are closed (flush), so that rule is complete only if
// every route crosses stages in strictly ascending order, and a channel
// has one stage seen from either end.
func TestRouteStagesAscend(t *testing.T) {
	for _, m := range peerScanShapes {
		for _, choice := range []Topology{TopologyLinear, TopologyMesh, TopologyCube} {
			topo, err := resolveTopology(choice, m)
			if err != nil {
				t.Fatalf("machine %+v: resolving %v: %v", m, choice, err)
			}
			for p := 0; p < m.NumPEs; p++ {
				for _, q := range topo.targets(p) {
					if topo.stage(p, q) != topo.stage(q, p) {
						t.Fatalf("machine %+v topo %v: stage(%d, %d) = %d but stage(%d, %d) = %d",
							m, topo.kind(), p, q, topo.stage(p, q), q, p, topo.stage(q, p))
					}
				}
				for dst := 0; dst < m.NumPEs; dst++ {
					if dst == p {
						continue
					}
					cur, last := p, -1
					for _, hop := range walkRoute(t, topo, m, p, dst, hopBound(topo.kind())) {
						if s := topo.stage(cur, hop); s <= last {
							t.Fatalf("machine %+v topo %v: route %d->%d takes a stage-%d hop %d->%d after stage %d",
								m, topo.kind(), p, dst, s, cur, hop, last)
						} else {
							last = s
						}
						cur = hop
					}
				}
			}
		}
	}
}

// The 1 x C cube must really be the mesh (same targets), or the property
// above would be checking a topology no conveyor ever runs.
func TestCubeOnOneRowGridIsMesh(t *testing.T) {
	for _, m := range []sim.Machine{{NumPEs: 12, PEsPerNode: 4}, {NumPEs: 21, PEsPerNode: 3}} {
		topo, err := resolveTopology(TopologyCube, m)
		if err != nil {
			t.Fatal(err)
		}
		if topo.kind() != TopologyMesh {
			t.Errorf("machine %+v: cube over a 1 x %d node grid resolved to %v, want mesh", m, m.NumNodes(), topo.kind())
		}
	}
}

// A conveyor routes by table (hopOf, filled by New); topology.nextHop
// stays the one definition of a route. On every shape of the peer-scan
// grid and every topology, each PE's table must be that definition
// tabulated, with the PE itself as its own (single, local) hop.
func TestHopTableIsNextHopTabulated(t *testing.T) {
	for _, m := range peerScanShapes {
		for _, choice := range []Topology{TopologyLinear, TopologyMesh, TopologyCube} {
			topo, err := resolveTopology(choice, m)
			if err != nil {
				t.Fatalf("machine %+v: resolving %v: %v", m, choice, err)
			}
			err = shmem.Run(shmem.Config{Machine: m}, func(pe *shmem.PE) {
				c, err := New(pe, Options{ItemBytes: 8, BufferItems: 1, Topology: choice})
				if err != nil {
					panic(err)
				}
				me := pe.Rank()
				if len(c.hopOf) != m.NumPEs {
					t.Errorf("machine %+v topo %v: PE %d has %d table entries", m, choice, me, len(c.hopOf))
					return
				}
				for dst, hop := range c.hopOf {
					want := me
					if dst != me {
						want = topo.nextHop(me, dst)
					}
					if int(hop) != want || c.nextHop(dst) != want {
						t.Errorf("machine %+v topo %v (asked %v): PE %d routes %d via %d, nextHop says %d",
							m, topo.kind(), choice, me, dst, hop, want)
					}
				}
			})
			if err != nil {
				t.Fatalf("machine %+v topo %v: %v", m, choice, err)
			}
		}
	}
}
