package shmem

import (
	"encoding/binary"
	"sync/atomic"

	"actorprof/internal/fault"
	"actorprof/internal/sim"
)

// Put is a blocking one-sided put (shmem_putmem): data is visible at the
// target when Put returns. The PE's clock is charged the transfer cost
// (network for inter-node targets, shared-memory copy for intra-node).
func (p *PE) Put(target, offset int, data []byte) {
	p.prof(RoutinePut, len(data))
	p.chargeTransfer(target, len(data))
	p.rawWrite(target, offset, data)
}

// prof records an API-profile event when profiling is enabled.
func (p *PE) prof(r Routine, n int) {
	if prof := p.world.cfg.Profile; prof != nil {
		prof.record(p.rank, r, n)
	}
}

// PutInt64 is a blocking 8-byte put, the shape Conveyors uses for its
// nonblock_progress signaling word (shmem_put after shmem_quiet). It is
// Put of the value's eight bytes, so unlike the other word accessors it
// accepts a misaligned offset (as a plain copy: benchmark/shmemrung.go
// replays buffers at whatever offsets their mean size gives); at an
// aligned one it is the atomic word store a polling peer needs.
func (p *PE) PutInt64(target, offset int, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	p.Put(target, offset, b[:])
}

// PutNBI is a non-blocking put (shmem_putmem_nbi). The write is buffered
// at the initiator and becomes visible at the target only after Quiet.
// This is stricter than the OpenSHMEM memory model - real NBI
// puts may land at any time - but it is exactly the guarantee correct
// protocols rely on, so running under the strict model surfaces protocol
// bugs instead of hiding them behind eager delivery.
//
// The transfer cost is charged immediately (the NIC starts streaming when
// the put is issued). The caller's bytes are snapshotted into the PE's
// staging arena, so data may be reused as soon as PutNBI returns.
func (p *PE) PutNBI(target, offset int, data []byte) {
	p.prof(RoutinePutNBI, len(data))
	if p.inj != nil {
		// Injection point: a delayed NBI issue models a NIC that starts
		// streaming late. Indexed by the PE's NBI-put ordinal, which is
		// fixed by program structure.
		p.fireFaultCounted(fault.SitePutNBI, int64(target), int64(len(data)))
	}
	p.chargeTransfer(target, len(data))
	start := len(p.nbiStage)
	p.nbiStage = append(p.nbiStage, data...)
	p.pendingNBI = append(p.pendingNBI, pendingWrite{target: target, offset: offset, start: start, end: len(p.nbiStage)})
}

// Quiet (shmem_quiet) completes all outstanding non-blocking puts issued
// by this PE, to *all* destinations, making them visible remotely. The
// clock is charged the quiet latency when there was anything to wait for.
func (p *PE) Quiet() {
	p.prof(RoutineQuiet, 0)
	p.quiet()
}

// quiet is the unrecorded implementation shared with the operations
// that imply a quiet (fence, barrier); a pshmem-style wrapper sees only
// the routine the program called.
func (p *PE) quiet() {
	if len(p.pendingNBI) > 0 {
		if p.inj != nil {
			// Injection point: a stalled quiet delays the completion -
			// and hence remote visibility - of every buffered put, in
			// virtual time. Only flushing quiets fire, so the index is
			// program-determined.
			p.fireFaultCounted(fault.SiteQuiet, int64(len(p.pendingNBI)), int64(len(p.nbiStage)))
		}
		p.ChargeEvent(sim.EvQuiet, int64(len(p.pendingNBI)))
		for _, w := range p.pendingNBI {
			p.rawWrite(w.target, w.offset, p.nbiStage[w.start:w.end])
		}
		// Every payload is in its target heap now: rewind the arena.
		p.pendingNBI = p.pendingNBI[:0]
		p.nbiStage = p.nbiStage[:0]
	}
}

// Get is a blocking one-sided get (shmem_getmem). Charged like a
// round-trip transfer.
func (p *PE) Get(target, offset int, buf []byte) {
	p.prof(RoutineGet, len(buf))
	p.chargeTransfer(target, len(buf))
	p.rawRead(target, offset, buf)
}

// GetInt64 is a blocking 8-byte get.
func (p *PE) GetInt64(target, offset int) int64 {
	p.prof(RoutineGet, 8)
	p.chargeTransfer(target, 8)
	return atomic.LoadInt64(p.word(target, offset))
}

// AtomicFetchAddInt64 performs a remote fetch-and-add
// (shmem_int64_atomic_fetch_add) and returns the previous value.
func (p *PE) AtomicFetchAddInt64(target, offset int, delta int64) int64 {
	p.prof(RoutineAtomicFetchAdd, 8)
	p.chargeTransfer(target, 8)
	old := atomic.AddInt64(p.word(target, offset), delta) - delta
	if target != p.rank {
		p.world.pes[target].ring()
	}
	return old
}

// CopyLocal performs an intra-node direct copy into a same-node PE's heap
// through shmem_ptr semantics: the target's symmetric memory is mapped
// into this PE's address space and written with memcpy. Panics if target
// is on a different node, as shmem_ptr would return NULL there.
func (p *PE) CopyLocal(target, offset int, data []byte) {
	if !p.SameNode(target) {
		panic("shmem: CopyLocal to a PE on a different node (shmem_ptr is NULL)")
	}
	p.prof(RoutineCopyLocal, len(data))
	p.ChargeEvent(sim.EvLocalCopy, int64(len(data)))
	p.rawWrite(target, offset, data)
}

// ReadLocal reads from a same-node PE's heap through shmem_ptr semantics.
func (p *PE) ReadLocal(target, offset int, buf []byte) {
	if !p.SameNode(target) {
		panic("shmem: ReadLocal from a PE on a different node (shmem_ptr is NULL)")
	}
	p.prof(RoutineReadLocal, len(buf))
	p.ChargeEvent(sim.EvLocalCopy, int64(len(buf)))
	p.rawRead(target, offset, buf)
}

// WaitCmp is the comparison operator for WaitUntilInt64.
type WaitCmp int

// Comparison operators (shmem_wait_until's SHMEM_CMP_*).
const (
	CmpEq WaitCmp = iota
	CmpNe
	CmpGt
	CmpGe
	CmpLt
	CmpLe
)

func (c WaitCmp) holds(a, b int64) bool {
	switch c {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	default:
		panic("shmem: unknown WaitCmp")
	}
}

// WaitUntilInt64 blocks until the int64 in this PE's own heap at offset
// satisfies cmp against value (shmem_wait_until). The word is typically
// written by a remote PE's put, which rings this PE's doorbell: the wait
// is a progress loop of its own (each poll is one sweep) and sleeps
// between polls, falling back to yielding while another progress loop on
// this PE - a conveyor that has not terminated - cannot vouch for being
// idle.
func (p *PE) WaitUntilInt64(offset int, cmp WaitCmp, value int64) int64 {
	p.MayBlock("WaitUntilInt64")
	po := p.OpenPoller()
	defer po.Close()
	for {
		po.Begin()
		v := p.LoadInt64(p.rank, offset)
		if cmp.holds(v, value) {
			return v
		}
		po.End(true)
		if !p.WaitIdle() {
			p.Yield()
		}
	}
}

// chargeTransfer charges the cost of moving n bytes to target.
func (p *PE) chargeTransfer(target, n int) {
	if p.SameNode(target) {
		p.ChargeEvent(sim.EvLocalCopy, int64(n))
	} else {
		p.ChargeEvent(sim.EvNetworkPut, int64(n))
	}
}
