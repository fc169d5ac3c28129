package conveyor

// The transport owns the symmetric slot layout (ack words, sequence
// words, length-prefixed payload slots) and addresses it by raw byte
// offset by design; the typed Int64Array view cannot express it.
//actorvet:ignore-file rawoffset

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"actorprof/internal/fault"
	"actorprof/internal/sim"
)

// board is the shared termination-detection state of one conveyor
// instance across all PEs. In a real Conveyors run this bookkeeping rides
// on the aggregated buffers themselves; the simulation keeps it as plain
// shared counters, which changes no observable trace event. No message
// touches it: a PE counts its pushes privately (Stats.Pushed) and adds
// the total once, when it declares done; deliveries are added once per
// received buffer.
type board struct {
	pushed    atomic.Int64 // items accepted from applications, summed over the PEs that are done
	delivered atomic.Int64 // items placed in final pull queues, all PEs
	donePEs   atomic.Int64 // PEs that have called Advance(done=true)
}

// settled reports the global half of the termination condition: every
// PE is done and every pushed item has reached a final pull queue. Once
// true it stays true (a done PE pushes no more). pushed is only
// meaningful - and only read - once donePEs says every PE has published
// its total, which each does before it counts itself done.
func (b *board) settled(npes int) bool {
	return b.donePEs.Load() == int64(npes) && b.pushed.Load() == b.delivered.Load()
}

// ringIfSettled is called by whoever just changed donePEs or delivered.
// The board is plain shared memory, not a heap write, so PEs asleep
// waiting for termination would not hear of it: the update that makes
// the board settle rings every doorbell. (Of two racing final updates at
// least one observes the other, so the ring cannot be lost; both may
// ring, which is harmless.)
func (c *Conveyor) ringIfSettled() {
	if c.board.settled(c.pe.NumPEs()) {
		c.pe.World().RingAll()
	}
}

type boardKey struct{ inBase int }

func boardFor(c *Conveyor) *board {
	return c.pe.World().Shared(boardKey{c.inBase}, func() any { return &board{} }).(*board)
}

// Push offers one item for delivery to PE dst. It returns false when the
// aggregation buffer toward the next hop is full and could not be flushed
// immediately; the caller must call Advance and retry, which is the
// standard Conveyors idiom:
//
//	for !c.Push(item, dst) {
//		c.Advance(false)
//	}
//
// Push panics if the conveyor is already done or complete, or if the item
// size does not match ItemBytes.
func (c *Conveyor) Push(item []byte, dst int) bool {
	if len(item) != c.itemBytes {
		panic(fmt.Sprintf("conveyor: Push item of %d bytes, want %d", len(item), c.itemBytes))
	}
	slot, ok := c.PushSlot(dst)
	if !ok {
		return false
	}
	copy(slot, item)
	return true
}

// PushSlot reserves space for one item toward dst and returns the
// ItemBytes-sized payload slice to encode into, avoiding the staging
// copy Push implies. The caller must fill the entire slice before any
// further conveyor call (the slot may hold stale bytes from a previous
// buffer generation). Returns ok=false under the same conditions as
// Push; panics likewise. A push writes nothing another PE reads: the
// slot, the buffer's fill count and Stats.Pushed are this PE's own, and
// the route is a table lookup (DESIGN.md §8, "what one message touches").
func (c *Conveyor) PushSlot(dst int) ([]byte, bool) {
	if c.done {
		panic("conveyor: Push after Advance(done=true)")
	}
	if dst < 0 || dst >= len(c.hopOf) {
		panic(fmt.Sprintf("conveyor: Push to invalid PE %d", dst))
	}
	ob := c.outFor(dst)
	if ob.n >= c.capOf(ob) {
		// Never transfer from inside Push: the append is MAIN-segment
		// user work in the FA-BSP attribution, while buffer transfers
		// are communication. The caller's Advance loop (COMM) flushes.
		return nil, false
	}
	slot := c.appendSlot(ob, c.pe.Rank(), dst)
	// The buffer changed since the last sweep looked at it (a retry that
	// failed before it may succeed now), so that sweep no longer vouches
	// for this PE being idle.
	c.poller.Touch()
	// Counted privately; Advance(done) publishes the total (see board).
	c.stats.Pushed++
	return slot, true
}

// capOf returns ob's effective capacity for the current buffer
// generation. A fault injector is consulted once per generation (first
// look while the buffer is empty) and may shrink the capacity, forcing
// partial buffers and early flushes; without an injector the capacity
// is always the configured BufferItems.
func (c *Conveyor) capOf(ob *outBuf) int {
	if c.faulty && ob.n == 0 && ob.capSeq != ob.sentSeq {
		c.decideCap(ob)
	}
	return ob.cap
}

// decideCap is capOf's slow path, kept out of line so capOf stays
// inlinable in the Push hot path.
//
//go:noinline
func (c *Conveyor) decideCap(ob *outBuf) {
	ob.cap = c.pe.FaultBufferCap(ob.sentSeq, ob.target, c.bufItems)
	ob.capSeq = ob.sentSeq
}

// reserveCap widens the current generation's effective capacity to hold
// at least n items (never beyond the allocated BufferItems). The elastic
// all-or-nothing reservation uses it so a fault-shrunk generation cannot
// livelock a multi-cell item that the configured capacity would hold.
func (c *Conveyor) reserveCap(ob *outBuf, n int) {
	if ob.cap < n && n <= c.bufItems {
		ob.cap = n
	}
}

// appendSlot reserves one wire-format record in ob, writes its header,
// and returns the payload portion for the caller to fill. ob.items is
// allocated at full BufferItems capacity up front and the capacity
// check precedes every reservation, so the reslice never reallocates.
func (c *Conveyor) appendSlot(ob *outBuf, orig, dst int) []byte {
	off := len(ob.items)
	ob.items = ob.items[:off+c.wireBytes]
	rec := ob.items[off:]
	binary.LittleEndian.PutUint32(rec[hdrOrig:], uint32(orig))
	binary.LittleEndian.PutUint32(rec[hdrDst:], uint32(dst))
	ob.n++
	return rec[hdrBytes : hdrBytes+c.itemBytes]
}

// appendItem adds one wire-format item to an outgoing buffer.
func (c *Conveyor) appendItem(ob *outBuf, orig, dst int, payload []byte) {
	moveItem(c.appendSlot(ob, orig, dst), payload)
}

// appendRecord adds an item that is only passing through: rec, header
// and payload as they arrived, is copied once.
func (c *Conveyor) appendRecord(ob *outBuf, rec []byte) {
	off := len(ob.items)
	ob.items = ob.items[:off+c.wireBytes]
	moveItem(ob.items[off:], rec)
	ob.n++
}

// Pull returns the next delivered item: its payload, the original source
// PE, and ok=false when the pull queue is empty. The returned slice is a
// borrowed view into the conveyor's delivery ring: it is valid only
// until the next conveyor call that makes progress (Advance, Push, or a
// blocked-push retry); decode or copy it before then. Every in-repo
// consumer decodes immediately, which is the intended idiom.
func (c *Conveyor) Pull() (item []byte, src int, ok bool) {
	if c.hasUnpulled {
		c.hasUnpulled = false
		return c.unpulled, c.unpulledSrc, true
	}
	item, src, ok = c.pull.pop()
	if ok {
		c.stats.Pulled++
	}
	return item, src, ok
}

// PullRun returns the next contiguous run of delivered items as one
// borrowed view: items holds n payloads of ItemBytes each, back to back,
// and srcs holds the n original source PEs in parallel. n == 0 means the
// pull queue is empty. Both slices are borrowed views into the
// conveyor's delivery ring, valid only until the next conveyor call that
// makes progress (Advance, Push, or a blocked-push retry); decode or
// copy them before then. This is the batch-dispatch fast path: one call
// drains up to a whole delivered ring segment instead of n Pulls.
func (c *Conveyor) PullRun() (items []byte, srcs []int32, n int) {
	if c.hasUnpulled {
		// The unpulled item must come out first to preserve FIFO order;
		// hand it back as a one-item run (its bytes were copied by
		// Unpull, so the view contract trivially holds).
		c.hasUnpulled = false
		c.unpulledSrc32[0] = int32(c.unpulledSrc)
		c.stats.Pulled++
		return c.unpulled, c.unpulledSrc32[:], 1
	}
	items, srcs, n = c.pull.popRun()
	c.stats.Pulled += int64(n)
	return items, srcs, n
}

// Unpull returns the most recently pulled item to the front of the queue
// (convey_unpull). Only one item may be outstanding. The item bytes are
// copied, so an Unpulled view stays valid across further progress.
func (c *Conveyor) Unpull(item []byte, src int) {
	if c.hasUnpulled {
		panic("conveyor: double Unpull")
	}
	if cap(c.unpulled) < c.itemBytes {
		c.unpulled = make([]byte, c.itemBytes)
	}
	c.unpulled = c.unpulled[:c.itemBytes]
	copy(c.unpulled, item)
	c.unpulledSrc, c.hasUnpulled = src, true
	c.stats.Pulled--
}

// PendingPulls returns the number of items waiting in the pull queue.
func (c *Conveyor) PendingPulls() int {
	n := c.pull.n
	if c.hasUnpulled {
		n++
	}
	return n
}

// Advance makes communication progress: it receives incoming buffers
// (delivering or re-routing their items), flushes outgoing buffers that
// are full - or non-empty once this PE is done - and checks for global
// termination. done=true declares that this PE will push no more items.
// Advance returns false once the conveyor is complete (the convey_advance
// convention); the caller should still drain Pull.
func (c *Conveyor) Advance(done bool) bool {
	if c.complete {
		return false
	}
	c.stats.Advances++
	// Note: no charge per poll. Poll counts depend on goroutine
	// scheduling; charging them would make Virtual-mode clocks
	// nondeterministic. Idle waiting is accounted at barrier clock
	// synchronization instead. For the same reason the injection point
	// here is schedule-only (extra yields, never cycles).
	if c.faulty {
		c.pe.FaultSched(fault.SiteAdvance)
	}
	// The sweep starts here: the poller samples the doorbell epoch
	// before anything a peer may change is read.
	c.poller.Begin()
	if done && !c.done {
		c.done = true
		// Publish before counting as done: whoever sees the last PE done
		// must see every PE's pushes (settled reads them in that order).
		c.board.pushed.Add(c.stats.Pushed)
		c.board.donePEs.Add(1)
		c.ringIfSettled()
	}

	c.drainBacklog()
	c.receive()
	c.drainBacklog()
	c.flush(c.done)

	if c.done &&
		len(c.routeBacklog) == 0 &&
		c.outEmpty() &&
		c.board.settled(c.pe.NumPEs()) {
		// All PEs are done, nothing is buffered here, and every pushed
		// item has reached a final pull queue, so nothing is in flight
		// anywhere: terminate.
		c.complete = true
		c.poller.Close()
		return false
	}
	// Advance itself never blocks - single-shot callers (Done, Progress)
	// have local work to return to. It only tells the doorbell whether
	// this sweep was idle; callers that can prove they have nothing else
	// to do sleep in PE.WaitIdle.
	c.poller.End(c.PendingPulls() == 0)
	c.pe.Yield()
	return true
}

func (c *Conveyor) outEmpty() bool {
	for _, ob := range c.out {
		if ob.n > 0 {
			return false
		}
		if ob.sentSeq > c.ackOf(ob) {
			return false // transfers not yet consumed by the receiver
		}
	}
	return true
}

// ackOf reads ob's ack word (buffers its target has consumed) from this
// PE's own heap, where the receiver deposits it.
func (c *Conveyor) ackOf(ob *outBuf) int64 {
	return c.pe.LoadInt64(c.pe.Rank(), c.ackBase+ob.idx*8)
}

// tryTransfer attempts to move ob's aggregated buffer to its target's
// landing zone. Returns false when both landing slots are still
// unconsumed (double-buffer window full).
func (c *Conveyor) tryTransfer(ob *outBuf) bool {
	if ob.n == 0 {
		return true
	}
	if ob.sentSeq-c.ackOf(ob) >= slots {
		return false
	}
	c.transfer(ob)
	return true
}

// transfer unconditionally ships ob's buffer (caller checked the window).
func (c *Conveyor) transfer(ob *outBuf) {
	// Injection point: a delayed transfer models a slow landing zone,
	// keyed by the channel's buffer sequence number.
	c.pe.FaultTransfer(ob.sentSeq, ob.target, len(ob.items))
	me := c.pe.Rank()
	slot := int(ob.sentSeq % slots)
	// Landing zone of channel me->target lives in target's heap, at the
	// target's peer index of me.
	zone := c.inBase + ob.theirIdx*c.chanBytes
	slotOff := zone + 8 + slot*c.slotBytes
	payload := ob.items

	var lenWord [8]byte
	binary.LittleEndian.PutUint64(lenWord[:], uint64(ob.n))

	if c.pe.SameNode(ob.target) {
		// local_send: memcpy through shmem_ptr, then the length word,
		// then the sequence signal - plain stores within the node.
		c.pe.CopyLocal(ob.target, slotOff+8, payload)
		c.pe.CopyLocal(ob.target, slotOff, lenWord[:])
		var seqWord [8]byte
		binary.LittleEndian.PutUint64(seqWord[:], uint64(ob.sentSeq+1))
		c.pe.CopyLocal(ob.target, zone, seqWord[:])
		c.stats.LocalBuffers++
		c.emitPhysical(LocalSend, len(payload), me, ob.target)
	} else {
		// nonblock_send: stream the buffer with shmem_putmem_nbi.
		c.pe.PutNBI(ob.target, slotOff+8, payload)
		c.pe.PutNBI(ob.target, slotOff, lenWord[:])
		c.stats.RemoteBuffers++
		c.emitPhysical(NonblockSend, len(payload), me, ob.target)
		// nonblock_progress: shmem_quiet to complete the puts, then a
		// blocking shmem_put of the sequence word to signal arrival.
		c.pe.Quiet()
		c.pe.PutInt64(ob.target, zone, ob.sentSeq+1)
		c.stats.Quiets++
		c.emitPhysical(NonblockProgress, len(payload), me, ob.target)
	}
	ob.sentSeq++
	ob.items = ob.items[:0]
	ob.n = 0
	c.poller.Touch()
}

// flush ships every full buffer, and - in the endgame, once this PE is
// done - every non-empty buffer.
func (c *Conveyor) flush(endgame bool) {
	for _, ob := range c.out {
		if (ob.n > 0 && ob.n >= ob.cap) || (endgame && ob.n > 0) {
			c.tryTransfer(ob)
		}
	}
}

// receive drains every incoming channel whose sequence word is ahead of
// what we have consumed, delivering items addressed to this PE and
// re-routing mesh items addressed elsewhere. Only topology peers can
// write a landing zone (p is a hop target of q iff q is one of p), so
// only their channels are polled.
func (c *Conveyor) receive() {
	me := c.pe.Rank()
	for i, src := range c.peers {
		zone := c.inBase + i*c.chanBytes
		seq := c.pe.LoadInt64(me, zone)
		for c.consumed[i] < seq {
			slot := int(c.consumed[i] % slots)
			slotOff := zone + 8 + slot*c.slotBytes
			n := int(c.pe.LoadInt64(me, slotOff))
			buf := c.recvBuf[:n*c.wireBytes]
			c.pe.LoadBytesLocal(slotOff+8, buf)
			c.consumed[i]++
			// Ack before processing: the sender may refill this slot's
			// partner immediately, but not this slot until the next ack.
			// The word sits at the sender's peer index of me.
			c.pe.PutInt64(src, c.ackBase+c.out[i].theirIdx*8, c.consumed[i])
			c.poller.Touch()
			c.ingest(buf, n)
		}
	}
}

// ingest delivers or re-routes the items of one received buffer.
func (c *Conveyor) ingest(buf []byte, n int) {
	me := c.pe.Rank()
	c.pe.ChargeEvent(sim.EvIngest, int64(n))
	delivered, wire := c.stats.Delivered, c.wireBytes
	for i := 0; i < n; i++ {
		rec := buf[i*wire : (i+1)*wire]
		dst := int(binary.LittleEndian.Uint32(rec[hdrDst:]))
		if dst == me {
			c.pull.push(rec[hdrBytes:], int(binary.LittleEndian.Uint32(rec[hdrOrig:])))
			c.stats.Delivered++
			continue
		}
		// Intermediate mesh hop: forward along our column. Never block
		// here - if the buffer toward the hop is full and both landing
		// slots are unconsumed, park the item in the backlog; blocking
		// inside receive processing can deadlock two column peers that
		// are each waiting for the other's ack.
		ob := c.outFor(dst)
		if len(c.routeBacklog) > 0 || (ob.n >= c.capOf(ob) && !c.tryTransfer(ob)) {
			// Preserve per-pair ordering: once anything is backlogged,
			// all further forwards queue behind it.
			p := c.getBacklogBuf()
			copy(p, rec[hdrBytes:])
			orig := int(binary.LittleEndian.Uint32(rec[hdrOrig:]))
			c.routeBacklog = append(c.routeBacklog, routedItem{orig: orig, dst: dst, payload: p})
			continue
		}
		c.appendRecord(ob, rec)
		c.stats.Routed++
	}
	// One board update per buffer, not per item.
	if k := c.stats.Delivered - delivered; k > 0 {
		c.board.delivered.Add(k)
		c.ringIfSettled()
	}
}

// routedItem is a mesh item awaiting forwarding capacity.
type routedItem struct {
	orig, dst int
	payload   []byte
}

// getBacklogBuf returns an ItemBytes payload buffer for a parked
// forward, recycling buffers released by drainBacklog.
func (c *Conveyor) getBacklogBuf() []byte {
	if n := len(c.backlogFree); n > 0 {
		b := c.backlogFree[n-1]
		c.backlogFree = c.backlogFree[:n-1]
		return b
	}
	return make([]byte, c.itemBytes)
}

// drainBacklog retries parked forwards, preserving order per next hop: a
// hop that rejects an item blocks all later items for that hop in this
// pass, but other hops keep flowing.
func (c *Conveyor) drainBacklog() {
	if len(c.routeBacklog) == 0 {
		return
	}
	clear(c.blocked)
	remaining := c.routeBacklog[:0]
	for _, it := range c.routeBacklog {
		ob := c.outFor(it.dst)
		if c.blocked[ob.idx] {
			remaining = append(remaining, it)
			continue
		}
		if ob.n >= c.capOf(ob) && !c.tryTransfer(ob) {
			c.blocked[ob.idx] = true
			remaining = append(remaining, it)
			continue
		}
		c.appendItem(ob, it.orig, it.dst, it.payload)
		c.backlogFree = append(c.backlogFree, it.payload)
		c.stats.Routed++
		c.poller.Touch()
	}
	c.routeBacklog = remaining
}

func (c *Conveyor) emitPhysical(kind SendKind, bufBytes, src, dst int) {
	if c.opts.OnPhysical != nil {
		c.opts.OnPhysical(kind, bufBytes, src, dst)
	}
}
