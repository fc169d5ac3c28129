// Package conveyor reimplements the bale Conveyors message-aggregation
// library on top of the simulated OpenSHMEM runtime.
//
// A Conveyor moves fixed-size items between PEs with automatic
// aggregation: items pushed toward the same next hop accumulate in a
// per-destination buffer, and whole buffers travel through double-buffered
// landing zones in the symmetric heap. On a single node the topology is
// 1D linear (every pair of PEs exchanges directly, via shared-memory
// copies). On multiple nodes the topology is a 2D mesh: a PE first
// forwards an item along its *row* (the PEs of its own node) to the PE
// whose local rank matches the destination's, using an intra-node
// local_send; that PE then forwards along its *column* (the PEs with the
// same local rank on every node) with an inter-node non-blocking put.
// This is the multi-hop, memory-frugal routing scheme the paper
// describes, and it is what gives the physical-trace heatmaps of
// Figures 8-9 their row/column structure. Frugal is meant literally: a
// PE holds an aggregation buffer, a landing zone and an ack word for
// each of its topology peers (its row and its column) and for no one
// else, so a conveyor costs O(PEs x peers) bytes across the machine, not
// O(PEs^2).
//
// The three transfer mechanisms the paper instruments exist here with the
// same names and the same meaning:
//
//   - local_send: an intra-node buffer handoff performed with memcpy
//     through shmem_ptr.
//   - nonblock_send: the shmem_putmem_nbi that streams an aggregated
//     buffer to a remote node.
//   - nonblock_progress: the shmem_quiet that completes outstanding
//     non-blocking puts, followed by a small blocking shmem_put that
//     signals the destination.
//
// Self-sends deliberately take the full path (buffering, transfer,
// landing zone, delivery) rather than a shortcut; see the paper's
// "Note for self-sends" in Section IV-D.
package conveyor

import (
	"fmt"
	"sort"

	"actorprof/internal/shmem"
)

// SendKind classifies a physical transfer for the physical trace.
type SendKind int

// The physical send types traced by ActorProf (paper Section III-C).
const (
	LocalSend SendKind = iota
	NonblockSend
	NonblockProgress
)

// String returns the paper's spelling of the send type.
func (k SendKind) String() string {
	switch k {
	case LocalSend:
		return "local_send"
	case NonblockSend:
		return "nonblock_send"
	case NonblockProgress:
		return "nonblock_progress"
	default:
		return fmt.Sprintf("SendKind(%d)", int(k))
	}
}

// Options configures a Conveyor.
type Options struct {
	// ItemBytes is the fixed payload size of every item. Required, > 0.
	ItemBytes int
	// BufferItems is the aggregation buffer capacity in items.
	// Default 64.
	BufferItems int
	// Topology selects the routing scheme (default TopologyAuto:
	// 1D Linear on one node, 2D Mesh on 2-3 nodes, 3D Cube beyond).
	Topology Topology
	// OnPhysical, when non-nil, receives one callback per physical
	// transfer event: the hook ActorProf's physical trace attaches to.
	// src and dst are the hop endpoints (not the original endpoints).
	OnPhysical func(kind SendKind, bufBytes, src, dst int)
}

func (o Options) withDefaults() Options {
	if o.BufferItems == 0 {
		o.BufferItems = 64
	}
	return o
}

// Stats counts a conveyor's activity, for tests and the profiler.
type Stats struct {
	Pushed        int64 // items accepted from the application
	Delivered     int64 // items that reached their final PE's pull queue
	Pulled        int64 // items handed to the application
	Routed        int64 // items forwarded at an intermediate mesh hop
	LocalBuffers  int64 // buffers moved by local_send
	RemoteBuffers int64 // buffers moved by nonblock_send
	Quiets        int64 // nonblock_progress events (quiet+signal)
	Advances      int64 // calls to Advance
}

// header layout per item, prepended to the payload while in transit.
const (
	hdrOrig  = 0 // original source PE (uint32)
	hdrDst   = 4 // final destination PE (uint32)
	hdrBytes = 8
)

// Channel/landing-zone layout. Each directed pair (src -> dst) of
// topology peers has a landing zone in dst's symmetric heap and an ack
// word in src's heap. Both arrays are indexed by *peer index* - the
// position of the other end in the owner's sorted targets() - so a heap
// holds only what its peers can write: the memory-frugal half of the
// paper's routing scheme (DESIGN.md §3).
//
// Landing zone (per incoming src):
//
//	seq   int64                      buffers signaled so far
//	slot0 int64 length + data bytes
//	slot1 int64 length + data bytes
//
// Ack word (per outgoing dst, in the *sender's* heap): buffers consumed.
const slots = 2

// Conveyor is the per-PE handle. Create one on every PE with New (a
// collective), then Push/Pull/Advance from the owning PE only.
type Conveyor struct {
	pe   *shmem.PE
	opts Options

	// faulty caches pe.HasFault() (fixed for the PE's lifetime) so the
	// Push hot path's capacity check stays inlinable.
	faulty bool

	itemBytes int // payload
	wireBytes int // payload + header
	bufItems  int
	slotBytes int // 8 (length) + bufItems*wireBytes, rounded up to whole words
	chanBytes int // 8 (seq) + slots*slotBytes

	inBase  int // heap offset of my landing zones, by peer index of the source
	ackBase int // heap offset of my ack words, by peer index of the destination

	// out[i] is the aggregation buffer toward peers[i], the legal hop
	// targets (row+column in mesh mode).
	out []*outBuf

	// consumed[i] counts buffers consumed from peers[i]'s channel.
	consumed []int64

	// pull is the delivery ring of items addressed to this PE. Pull
	// hands out borrowed views of its slots (see Pull's contract).
	pull pullRing
	// unpulled holds a copy of an item returned by Unpull, delivered
	// again before the ring. The buffer is reused across Unpulls.
	unpulled    []byte
	unpulledSrc int
	hasUnpulled bool
	// unpulledSrc32 backs the one-item source view PullRun hands out
	// when it re-delivers an unpulled item.
	unpulledSrc32 [1]int32

	// recvBuf is the scratch buffer the receive path drains landing
	// slots into. Ingest completes synchronously (items are copied into
	// the delivery ring, an outgoing buffer, or the backlog before the
	// next slot is read), so one buffer serves every channel and no
	// per-buffer allocation happens on the receive path.
	recvBuf []byte

	// backlogFree recycles payload buffers of drained backlog entries.
	backlogFree [][]byte

	// routeBacklog holds mesh items that arrived for forwarding while
	// the outgoing buffer toward their next hop was full and both
	// landing slots were unconsumed. Blocking inside receive processing
	// would deadlock (two column peers can each wait for the other's
	// ack), so forwarding parks here and Advance retries.
	routeBacklog []routedItem

	done     bool
	complete bool

	// poller registers this conveyor's Advance loop with the PE's
	// doorbell (DESIGN.md §16). Receiving or shipping a buffer,
	// un-backlogging an item and accepting a push all touch it; an
	// Advance that touched nothing and left the pull ring empty is an
	// idle sweep, and a push afterwards withdraws that claim until the
	// next Advance.
	poller *shmem.Poller

	board *board // shared termination board
	stats Stats

	topo topology
	// peers is targets(me), ascending; a PE's position in it is its peer
	// index here. Every PE has the same number of peers (machines are
	// whole nodes), which is what makes the per-peer Mallocs symmetric.
	peers []int
	// hopOf[dst] is topo.nextHop(me, dst), tabulated by New: routes are
	// static, and a push or a forwarded item should cost an index, not
	// the topology's coordinate arithmetic. hopOf[me] == me: self-sends
	// take one full local hop (no bypass). via[dst] is the same hop as a
	// peer index, which is what the message path indexes out by; these
	// two are the only per-PE tables as long as the world.
	hopOf, via []int32
	// blocked is drainBacklog's per-hop scratch, by peer index.
	blocked []bool
}

type outBuf struct {
	target int // peers[idx]
	// idx is the target's peer index here (my ack word for this channel);
	// theirIdx is my peer index at the target: where my landing zone sits
	// in its heap, and where it reads the acks I send it.
	idx, theirIdx int
	items         []byte // aggregated wire-format items
	n             int    // item count
	sentSeq       int64  // buffers sent on this channel
	// cap is the effective capacity of the current buffer generation.
	// It equals the configured BufferItems unless a fault injector
	// shrinks the generation (capSeq tracks which generation the
	// injector was last consulted for; -1 = not yet).
	cap    int
	capSeq int64
}

// New creates a conveyor across all PEs. It is a collective: every PE
// must call it with identical options. The returned handle is bound to
// the calling PE.
func New(pe *shmem.PE, opts Options) (*Conveyor, error) {
	opts = opts.withDefaults()
	if opts.ItemBytes <= 0 {
		return nil, fmt.Errorf("conveyor: ItemBytes must be positive, got %d", opts.ItemBytes)
	}
	if opts.BufferItems <= 0 {
		return nil, fmt.Errorf("conveyor: BufferItems must be positive, got %d", opts.BufferItems)
	}
	npes, me := pe.NumPEs(), pe.Rank()
	topo, err := resolveTopology(opts.Topology, pe.World().Machine())
	if err != nil {
		return nil, err
	}
	peers := topo.targets(me)
	c := &Conveyor{
		pe:        pe,
		opts:      opts,
		faulty:    pe.HasFault(),
		itemBytes: opts.ItemBytes,
		wireBytes: opts.ItemBytes + hdrBytes,
		bufItems:  opts.BufferItems,
		consumed:  make([]int64, len(peers)),
		out:       make([]*outBuf, len(peers)),
		blocked:   make([]bool, len(peers)),
		topo:      topo,
		peers:     peers,
	}
	// Whole words, so that every length, sequence and ack word is 8-aligned:
	// the heap reads and writes those atomically and takes no lock
	// (DESIGN.md §3). What a transfer moves is still bufItems*wireBytes.
	c.slotBytes = (8 + c.bufItems*c.wireBytes + 7) &^ 7
	c.chanBytes = 8 + slots*c.slotBytes
	c.pull.init(c.itemBytes)
	c.recvBuf = make([]byte, c.bufItems*c.wireBytes)

	// Symmetric allocation, as real Conveyors does it: a landing zone and
	// an ack word per topology peer, the only PEs that can be the other
	// end of a channel (targets() is symmetric). The peer count is the
	// same on every PE, so the sizes are.
	c.inBase = pe.Malloc(len(peers) * c.chanBytes)
	c.ackBase = pe.Malloc(len(peers) * 8)

	for i, t := range peers {
		c.out[i] = &outBuf{
			target: t,
			idx:    i,
			// The one fact about a peer's layout a sender needs; from the
			// peers' lists only (every PE's cost +17 % of a 256-PE run).
			theirIdx: sort.SearchInts(topo.targets(t), me),
			items:    make([]byte, 0, c.bufItems*c.wireBytes),
			cap:      c.bufItems,
			capSeq:   -1,
		}
	}
	c.hopOf, c.via = make([]int32, npes), make([]int32, npes)
	for dst := range c.hopOf {
		hop := dst
		if dst != me {
			hop = topo.nextHop(me, dst)
		}
		c.hopOf[dst] = int32(hop)
		c.via[dst] = int32(sort.SearchInts(peers, hop))
	}
	c.board = boardFor(c)
	// Collective sanity check: every PE must construct the conveyor
	// with identical options, or the symmetric channel layout (and the
	// routing!) silently diverges. Real Conveyors trusts the program;
	// the simulation can afford to verify.
	sig := int64(c.itemBytes)<<40 | int64(c.bufItems)<<16 | int64(c.topo.kind())
	// Both reductions must run on every PE before anyone bails, or the
	// mismatching PEs would leave the others stuck in the collective.
	mx := pe.AllReduceInt64(shmem.OpMax, sig)
	mn := pe.AllReduceInt64(shmem.OpMin, sig)
	if mx != mn {
		return nil, fmt.Errorf("conveyor: collective option mismatch: PE %d has signature %d, cluster range [%d, %d]",
			pe.Rank(), sig, mn, mx)
	}
	c.poller = pe.OpenPoller()
	return c, nil
}

// Topology returns the routing scheme in effect.
func (c *Conveyor) Topology() Topology { return c.topo.kind() }

// nextHop returns the next hop PE for an item whose final destination is
// dst.
func (c *Conveyor) nextHop(dst int) int { return int(c.hopOf[dst]) }

// outFor returns the aggregation buffer toward that hop.
func (c *Conveyor) outFor(dst int) *outBuf { return c.out[c.via[dst]] }

// Stats returns a snapshot of the conveyor's counters.
func (c *Conveyor) Stats() Stats { return c.stats }

// Complete reports whether the conveyor has terminated: every PE called
// Advance with done=true and every pushed item has been delivered.
func (c *Conveyor) Complete() bool { return c.complete }

// ItemBytes returns the fixed payload size.
func (c *Conveyor) ItemBytes() int { return c.itemBytes }
