package shmem

import (
	"runtime"

	"actorprof/internal/fault"
	"actorprof/internal/sim"
)

// This file is the fault-injection seam of the OpenSHMEM layer: every
// hook the chaos harness can perturb funnels through here. With no
// injector installed (the default), each hook is a single nil-interface
// check, so the production paths pay effectively nothing.

// HasFault reports whether a fault injector is installed, letting higher
// layers (conveyor, actor) skip hook-argument computation entirely.
func (p *PE) HasFault() bool { return p.inj != nil }

// fireFault decides and applies a perturbation at a deterministic site:
// delays charge the virtual clock, yields perturb the goroutine
// schedule. Callers pass a program-structure-determined index.
func (p *PE) fireFault(site fault.Site, index, arg, arg2 int64) fault.Decision {
	d := p.inj.Decide(fault.Point{PE: p.rank, Site: site, Index: index, Arg: arg, Arg2: arg2})
	if d.DelayCycles > 0 {
		p.clock.Charge(d.DelayCycles)
		if p.sched != nil {
			p.sched.Append(sim.EvDelay, d.DelayCycles)
		}
	}
	for i := 0; i < d.Yields; i++ {
		runtime.Gosched()
	}
	return d
}

// fireFaultCounted fires a deterministic site indexed by the PE's own
// per-site invocation counter (NBI puts, flushing quiets, barriers -
// sequences fixed by program structure). Only the owning goroutine
// touches the counters.
func (p *PE) fireFaultCounted(site fault.Site, arg, arg2 int64) {
	idx := p.faultIdx[site]
	p.faultIdx[site]++
	p.fireFault(site, idx, arg, arg2)
}

// FaultSched fires a schedule-only site (advance polls, yield points):
// the decision may only add scheduler yields, never touch virtual
// state, because these sites fire at scheduling-dependent rates and
// charging them would break Virtual-timing determinism.
func (p *PE) FaultSched(site fault.Site) { p.FaultSchedArg(site, 0) }

// FaultSchedArg is FaultSched with a site argument: handler dispatch
// fires once per delivered run and passes the run length, so injectors
// can key decisions on delivery size.
func (p *PE) FaultSchedArg(site fault.Site, arg int64) {
	if p.inj == nil {
		return
	}
	idx := p.faultIdx[site]
	p.faultIdx[site]++
	d := p.inj.Decide(fault.Point{PE: p.rank, Site: site, Index: idx, Arg: arg})
	for i := 0; i < d.Yields; i++ {
		runtime.Gosched()
	}
}

// FaultTransfer fires the conveyor buffer-transfer site, keyed by the
// channel's buffer sequence number (deterministic per channel).
func (p *PE) FaultTransfer(seq int64, target, bufBytes int) {
	if p.inj == nil {
		return
	}
	p.fireFault(fault.SiteTransfer, seq, int64(target), int64(bufBytes))
}

// FaultBufferCap fires the capacity-selection site for a starting buffer
// generation and returns the effective capacity in [1, base].
func (p *PE) FaultBufferCap(seq int64, target, base int) int {
	if p.inj == nil {
		return base
	}
	d := p.fireFault(fault.SiteBufferCap, seq, int64(target), int64(base))
	if d.Capacity <= 0 {
		return base
	}
	if d.Capacity > base {
		return base
	}
	return d.Capacity
}
