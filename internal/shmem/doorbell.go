package shmem

import (
	"sync/atomic"

	"actorprof/internal/fault"
)

// This file is the parked-progress mechanism (DESIGN.md §16): a PE whose
// progress loops have nothing to do sleeps on its doorbell instead of
// spin-yielding, and whoever gives it work rings.
//
// The doorbell is an epoch counter plus a one-token wake channel. Every
// foreign write into the PE's heap bumps the epoch after the data is in
// place (store, then ring); World.RingAll bumps every PE's for events
// that are not heap writes (conveyor termination, a crashed peer). A
// progress loop brackets each sweep with its Poller, which samples the
// epoch *before* the sweep looks at anything. WaitIdle sleeps only when
// every open poller's last sweep found nothing, began at the epoch that
// is still current - so nothing was written since any of them started
// looking - and has not been touched by local work since; and it raises
// the asleep flag before re-reading the epoch (flag, then recheck), so a
// ring that lands in between is seen by one side or the other.

// doorbell is the per-PE wake-up state. epoch and asleep are shared with
// ringing peers; everything else belongs to the owning goroutine.
type doorbell struct {
	epoch  atomic.Uint64
	asleep atomic.Bool
	wake   chan struct{} // capacity 1: a token means "epoch moved"

	pollers []*Poller
	// wokeIdle is set by a wake-up and cleared by the first sweep that
	// finds work; still set at the next sleep, the wake-up was for
	// nothing (counted in ProgressStats.EmptyWakes).
	wokeIdle bool
	stats    ProgressStats
}

// ProgressStats counts how one PE waited for work. Plain owner-only
// counters: read them from the PE's own goroutine (typically at the end
// of the SPMD body).
type ProgressStats struct {
	Sleeps     int64 // times the PE blocked on its doorbell
	Wakes      int64 // times a ring unblocked it
	EmptyWakes int64 // wakes after which no sweep found anything before the next sleep
	Yields     int64 // Yield calls: spin-loop rounds that ceded the processor
}

// ProgressStats returns the PE's wait counters so far.
func (p *PE) ProgressStats() ProgressStats { return p.bell.stats }

// ring announces that this PE's heap (or a world-wide condition it may
// be waiting on) changed. Callers make the change visible first.
func (p *PE) ring() {
	p.bell.epoch.Add(1)
	if p.bell.asleep.Load() {
		p.bell.rouse()
	}
}

// rouse hands a sleeping (or about to sleep) PE its wake token. Kept out
// of ring so that ring inlines into every put.
func (b *doorbell) rouse() {
	select {
	case b.wake <- struct{}{}:
	default: // a token is already waiting
	}
}

// RingAll rings every PE's doorbell. Layers above use it for the rare
// events a sleeping PE must learn of that are not writes into its heap:
// the conveyor termination board reaching its final state, and (inside
// this package) a crashed peer.
func (w *World) RingAll() {
	for _, pe := range w.pes {
		pe.ring()
	}
}

// Asleep returns how many PEs are blocked on their doorbell right now (a
// PE raises its flag just before it blocks). It is a racy snapshot for
// tests and diagnostics: "every peer of mine is asleep" is stable only
// as long as the caller is the one PE that could wake them.
func (w *World) Asleep() int {
	n := 0
	for _, pe := range w.pes {
		if pe.bell.asleep.Load() {
			n++
		}
	}
	return n
}

// Poller is one progress loop's registration with its PE's doorbell.
// The loop calls Begin before a sweep reads any state a peer may change,
// Touch whenever its state changes (in a sweep or between sweeps), End
// with whether the sweep left nothing to process, and Close when it has
// terminated for good. All methods are owner-only.
type Poller struct {
	pe    *PE
	began uint64
	idle  bool
}

// OpenPoller registers a progress loop. Until its first idle sweep - and
// whenever its last sweep is stale or found work - the PE will not sleep.
func (p *PE) OpenPoller() *Poller {
	po := &Poller{pe: p}
	p.bell.pollers = append(p.bell.pollers, po)
	return po
}

// Begin samples the doorbell epoch at the start of a sweep.
func (po *Poller) Begin() {
	po.began = po.pe.bell.epoch.Load()
	po.idle = true // provisional until End; a Touch during the sweep revokes it
}

// End closes the sweep begun by Begin. The sweep was idle if quiet holds
// (it left nothing for the PE to process) and nothing touched the poller
// while it ran (it moved no data).
func (po *Poller) End(quiet bool) {
	po.idle = po.idle && quiet
	if !po.idle {
		po.pe.bell.wokeIdle = false
	}
}

// Touch records that the loop's state changed: during a sweep, that the
// sweep moved data; between sweeps, that the last sweep's "found
// nothing" no longer describes the loop (an item was pushed, a buffer
// shipped). Without the latter a caller that swept, then ran code which
// gave the loop work, could sleep on the stale claim - nested Send retry
// loops do exactly that.
func (po *Poller) Touch() { po.idle = false }

// Close unregisters the loop; a closed poller no longer keeps the PE
// awake. Closing twice is a no-op.
func (po *Poller) Close() {
	b := &po.pe.bell
	for i, q := range b.pollers {
		if q == po {
			last := len(b.pollers) - 1
			b.pollers[i] = b.pollers[last]
			b.pollers[last] = nil
			b.pollers = b.pollers[:last]
			b.wokeIdle = false
			return
		}
	}
}

// sweptIdle reports whether every open poller finished a sweep that
// began at the current epoch, found nothing and still stands (no Touch
// since), and returns that epoch. With no poller open nothing vouches
// for the PE being idle.
func (p *PE) sweptIdle() (uint64, bool) {
	e := p.bell.epoch.Load()
	if len(p.bell.pollers) == 0 {
		return e, false
	}
	for _, po := range p.bell.pollers {
		if !po.idle || po.began != e {
			return e, false
		}
	}
	return e, true
}

// WaitIdle is the runtime's one blocking wait point. Call it where
// nothing but a remote event can give this PE work, after sweeping the
// progress loops involved. It sleeps until the doorbell rings only if
// every open poller on the PE vouches for that (see sweptIdle);
// otherwise it returns false at once and the caller keeps spin-yielding
// as before. Like Yield it is a fault.SiteYield preemption point and
// aborts with the crashed peer's rank once the world has failed -
// checked before sleeping and again on wake-up, because World.fail
// rings every doorbell.
func (p *PE) WaitIdle() (slept bool) {
	p.abortIfFailed()
	if p.inj != nil {
		p.FaultSched(fault.SiteYield)
	}
	e, idle := p.sweptIdle()
	if !idle {
		return false
	}
	b := &p.bell
	// Drop a token left by a ring this PE already accounted for, then
	// flag-and-recheck: a ring after the flag sends a token, a ring
	// before it moved the epoch.
	select {
	case <-b.wake:
	default:
	}
	b.asleep.Store(true)
	if b.epoch.Load() == e {
		if b.wokeIdle {
			b.stats.EmptyWakes++
		}
		b.stats.Sleeps++
		<-b.wake
		b.stats.Wakes++
		b.wokeIdle = true
		slept = true
	}
	b.asleep.Store(false)
	p.abortIfFailed()
	return slept
}
