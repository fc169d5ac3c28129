package conveyor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

// A PE's heap holds only what its peers can write (DESIGN.md §3): landing
// zones and ack words are indexed by peer index, so the two ends of a
// channel must agree on an index neither of them owns alone.

var layoutTopologies = []Topology{TopologyLinear, TopologyMesh, TopologyCube}

func align8(n int) int { return (n + 7) &^ 7 }

// TestLandingZonesArePeerIndexed builds real conveyors on every shape of
// the peer-scan grid and checks the three facts the layout rests on:
// every PE has the same number of peers (or the per-peer Mallocs would
// not be symmetric), the index p writes at in q's heap is q's own index
// of p - for landing zones and, mirrored, for acks - and the heap a
// conveyor costs is sized by peers, not PEs.
func TestLandingZonesArePeerIndexed(t *testing.T) {
	for _, m := range peerScanShapes {
		for _, choice := range layoutTopologies {
			cs := make([]*Conveyor, m.NumPEs)
			brk := make([]int, m.NumPEs)
			err := shmem.Run(shmem.Config{Machine: m}, func(pe *shmem.PE) {
				c, err := New(pe, Options{ItemBytes: 8, BufferItems: 1, Topology: choice})
				if err != nil {
					panic(err)
				}
				cs[pe.Rank()] = c
				brk[pe.Rank()] = pe.Malloc(0) // an empty allocation sits at the break
			})
			if err != nil {
				t.Fatalf("machine %+v topo %v: %v", m, choice, err)
			}
			peers := len(cs[0].peers)
			wantBrk := 8 + align8(peers*cs[0].chanBytes) + align8(peers*8)
			for p, c := range cs {
				if len(c.peers) != peers || len(c.out) != peers || len(c.consumed) != peers {
					t.Fatalf("machine %+v topo %v: PE %d has %d peers, %d buffers, %d channel counts; PE 0 has %d peers",
						m, choice, p, len(c.peers), len(c.out), len(c.consumed), peers)
				}
				if brk[p] != wantBrk {
					t.Errorf("machine %+v topo %v: PE %d's break after New is %d, want %d for %d peers (a full matrix over %d PEs is %d)",
						m, choice, p, brk[p], wantBrk, peers, m.NumPEs, 8+align8(m.NumPEs*c.chanBytes)+align8(m.NumPEs*8))
				}
				for i, q := range c.peers {
					ob := c.out[i]
					if ob.target != q || ob.idx != i {
						t.Fatalf("machine %+v topo %v: PE %d's buffer %d is {target %d, idx %d}, want {%d, %d}",
							m, choice, p, i, ob.target, ob.idx, q, i)
					}
					back := sort.SearchInts(cs[q].peers, p) // q's own index of p
					if back == len(cs[q].peers) || cs[q].peers[back] != p {
						t.Fatalf("machine %+v topo %v: %d is a peer of %d but not the reverse", m, choice, q, p)
					}
					if ob.theirIdx != back {
						t.Errorf("machine %+v topo %v: PE %d writes zone and ack %d in PE %d's heap, which polls PE %d at %d",
							m, choice, p, ob.theirIdx, q, p, back)
					}
					if mirror := cs[q].out[back].theirIdx; mirror != i {
						t.Errorf("machine %+v topo %v: PE %d acks PE %d at word %d, which reads its ack at %d",
							m, choice, q, p, mirror, i)
					}
					if int(c.via[q]) != i {
						t.Errorf("machine %+v topo %v: PE %d reaches its peer %d via index %d, want %d",
							m, choice, p, q, c.via[q], i)
					}
				}
				for dst, hop := range c.hopOf {
					if c.peers[c.via[dst]] != int(hop) || c.outFor(dst).target != int(hop) {
						t.Errorf("machine %+v topo %v: PE %d routes %d via PE %d but buffers it toward PE %d",
							m, choice, p, dst, hop, c.outFor(dst).target)
					}
				}
			}
		}
	}
}

// targetsByDefinition is the reference the enumerating targets() are
// checked against: filter every PE of the machine by the sentence in the
// package comment.
func targetsByDefinition(topo topology, m sim.Machine, me int) []int {
	var out []int
	for p := 0; p < m.NumPEs; p++ {
		sameRank := m.LocalRank(p) == m.LocalRank(me)
		ok := false
		switch tp := topo.(type) {
		case linearTopo:
			ok = true
		case meshTopo:
			ok = m.SameNode(p, me) || sameRank
		case cubeTopo:
			pr, pc, _ := tp.coords(p)
			mr, mc, _ := tp.coords(me)
			ok = m.SameNode(p, me) || (sameRank && (pr == mr || pc == mc))
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

func TestTargetsMatchTheirDefinition(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	shapes := append([]sim.Machine(nil), peerScanShapes...)
	for i := 0; i < 40; i++ {
		shapes = append(shapes, randomMachine(rnd))
	}
	for _, m := range shapes {
		for _, choice := range layoutTopologies {
			topo, err := resolveTopology(choice, m)
			if err != nil {
				t.Fatal(err)
			}
			for me := 0; me < m.NumPEs; me++ {
				got, want := topo.targets(me), targetsByDefinition(topo, m, me)
				if len(got) != len(want) {
					t.Fatalf("machine %+v topo %v: targets(%d) = %v, want %v", m, topo.kind(), me, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("machine %+v topo %v: targets(%d) = %v, want %v", m, topo.kind(), me, got, want)
					}
				}
			}
		}
	}
}

// TestThousandPEExchangeStaysOPeers is the shape the full-matrix layout
// could not afford (1 024 PEs each holding 1 024 landing zones): a
// 64-node 8 x 8 cube where every PE sends one item to every PE. The run
// must terminate, deliver every item exactly once, and leave each heap
// at the size of its 30 channels.
func TestThousandPEExchangeStaysOPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("1 024 PEs: skipped under -short")
	}
	const npes, perNode, bufItems = 1024, 16, 8
	m := sim.Machine{NumPEs: npes, PEsPerNode: perNode}
	var short, dup atomic.Int64
	brk := make([]int, npes)
	err := shmem.Run(shmem.Config{Machine: m}, func(pe *shmem.PE) {
		c, err := New(pe, Options{ItemBytes: 4, BufferItems: bufItems})
		if err != nil {
			panic(err)
		}
		me := pe.Rank()
		seen := make([]bool, npes)
		got := 0
		drain := func() {
			for {
				item, src, ok := c.Pull()
				if !ok {
					return
				}
				if int(binary.LittleEndian.Uint32(item)) != me || seen[src] {
					dup.Add(1)
				}
				seen[src] = true
				got++
			}
		}
		for off := 0; off < npes; off++ {
			dst := (me + off) % npes
			for {
				slot, ok := c.PushSlot(dst)
				if ok {
					binary.LittleEndian.PutUint32(slot, uint32(dst))
					break
				}
				c.Advance(false)
				drain()
			}
		}
		for c.Advance(true) {
			drain()
			if c.PendingPulls() == 0 {
				pe.WaitIdle()
			}
		}
		drain()
		if got != npes {
			short.Add(1)
		}
		brk[me] = pe.Malloc(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if short.Load() != 0 || dup.Load() != 0 {
		t.Fatalf("%d PEs did not receive exactly one item from every PE; %d items were duplicated or misdelivered",
			short.Load(), dup.Load())
	}
	// The stated bound: a PE buffers toward its node and toward one PE in
	// each node of its node-row and node-column, so at most
	// perNode + 2·√nodes channels of chanBytes + one ack word each.
	chanBytes := 8 + slots*(8+bufItems*(4+hdrBytes))
	peers := perNode + 2*int(math.Sqrt(float64(m.NumNodes())))
	bound := 8 + peers*(chanBytes+8) + 16
	for p, b := range brk {
		if b > bound {
			t.Fatalf("PE %d's heap is %d bytes, over the O(peers) bound of %d (%d channels; the full matrix was %d)",
				p, b, bound, peers, npes*(chanBytes+8))
		}
	}
}

// TestControlWordsAreWordAligned: the heap reads and writes a channel's
// sequence, length and ack words as atomic words and takes no lock, so
// every one of them must sit at an 8-aligned offset whatever the item
// size - a 4-byte item in a 3-item buffer makes a 44-byte slot, which
// used to put slot 1's length word and every later channel's sequence
// word across two words. Checked on the layout itself and, under -race,
// by an all-to-all exchange of such items over the three topologies (a
// misaligned LoadInt64 crashes; a misaligned put would be a plain copy
// racing the receiver's poll).
func TestControlWordsAreWordAligned(t *testing.T) {
	for _, tc := range []struct {
		m    sim.Machine
		topo Topology
	}{
		{sim.Machine{NumPEs: 6, PEsPerNode: 6}, TopologyLinear},
		{sim.Machine{NumPEs: 8, PEsPerNode: 4}, TopologyMesh},
		{sim.Machine{NumPEs: 16, PEsPerNode: 4}, TopologyCube},
	} {
		const perPair = 7 // two full buffers and a partial one per pair
		npes := tc.m.NumPEs
		var misaligned, wrong atomic.Int64
		err := shmem.Run(shmem.Config{Machine: tc.m}, func(pe *shmem.PE) {
			c, err := New(pe, Options{ItemBytes: 4, BufferItems: 3, Topology: tc.topo})
			if err != nil {
				panic(err)
			}
			for i := range c.peers {
				zone := c.inBase + i*c.chanBytes
				for _, off := range []int{zone, zone + 8, zone + 8 + c.slotBytes, c.ackBase + i*8} {
					if off%8 != 0 {
						misaligned.Add(1)
					}
				}
			}
			me := pe.Rank()
			next := make([]uint32, npes) // per source: the value expected next (FIFO per pair)
			got := 0
			drain := func() {
				for {
					item, src, ok := c.Pull()
					if !ok {
						return
					}
					if v := binary.LittleEndian.Uint32(item); v != uint32(src<<16|me<<8)|next[src] {
						wrong.Add(1)
					}
					next[src]++
					got++
				}
			}
			var item [4]byte
			for k := 0; k < perPair; k++ {
				for dst := 0; dst < npes; dst++ {
					binary.LittleEndian.PutUint32(item[:], uint32(me<<16|dst<<8|k))
					for !c.Push(item[:], dst) {
						c.Advance(false)
						drain()
					}
				}
			}
			for c.Advance(true) {
				drain()
			}
			drain()
			if got != perPair*npes {
				wrong.Add(1)
			}
			pe.Barrier()
		})
		if err != nil {
			t.Fatalf("machine %+v topo %v: %v", tc.m, tc.topo, err)
		}
		if misaligned.Load() != 0 || wrong.Load() != 0 {
			t.Errorf("machine %+v topo %v: %d control words off a word boundary, %d items lost, reordered or corrupted",
				tc.m, tc.topo, misaligned.Load(), wrong.Load())
		}
	}
}
