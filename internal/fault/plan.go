package fault

import (
	"fmt"
	"sort"
)

// Plan is a concrete, seeded fault plan: per-site probabilities and
// magnitudes. It implements Injector (and ClockSkewer) as a pure
// function of (Seed, Point), so a Plan value plus its seed is a complete,
// replayable description of a chaos schedule.
type Plan struct {
	// Name identifies the plan shape (one of PlanNames, or a custom
	// label). Purely descriptive.
	Name string `json:"name"`
	// Seed drives every probabilistic decision.
	Seed uint64 `json:"seed"`

	// NBIDelayProb delays a non-blocking put's issue by up to
	// NBIDelayMaxCycles virtual cycles.
	NBIDelayProb      float64 `json:"nbi_delay_prob,omitempty"`
	NBIDelayMaxCycles int64   `json:"nbi_delay_max_cycles,omitempty"`

	// QuietStallProb stalls a flushing quiet (nonblock_progress) by up
	// to QuietStallMaxCycles.
	QuietStallProb      float64 `json:"quiet_stall_prob,omitempty"`
	QuietStallMaxCycles int64   `json:"quiet_stall_max_cycles,omitempty"`

	// BarrierSkewProb stretches a PE's clock at barrier arrival by up to
	// BarrierSkewMaxCycles, creating a straggler every peer pays for.
	BarrierSkewProb      float64 `json:"barrier_skew_prob,omitempty"`
	BarrierSkewMaxCycles int64   `json:"barrier_skew_max_cycles,omitempty"`

	// TransferDelayProb delays a conveyor buffer transfer by up to
	// TransferDelayMaxCycles.
	TransferDelayProb      float64 `json:"transfer_delay_prob,omitempty"`
	TransferDelayMaxCycles int64   `json:"transfer_delay_max_cycles,omitempty"`

	// CapShrinkProb gives a starting buffer generation a reduced
	// effective capacity, uniform in [CapFloor, configured]. CapFloor
	// defaults to 4.
	CapShrinkProb float64 `json:"cap_shrink_prob,omitempty"`
	CapFloor      int     `json:"cap_floor,omitempty"`

	// YieldProb adds up to YieldMax extra scheduler yields at
	// schedule-only sites (advance polls, yield points, handler
	// dispatch), shaking the goroutine interleaving.
	YieldProb float64 `json:"yield_prob,omitempty"`
	YieldMax  int     `json:"yield_max,omitempty"`

	// SkewProb marks a PE as persistently slow: every Charge on it costs
	// up to SkewMaxPercent percent extra for the whole run.
	SkewProb       float64 `json:"skew_prob,omitempty"`
	SkewMaxPercent int64   `json:"skew_max_percent,omitempty"`
}

var _ Injector = (*Plan)(nil)
var _ ClockSkewer = (*Plan)(nil)

// Decide implements Injector.
func (p *Plan) Decide(pt Point) Decision {
	h := hashPoint(p.Seed, pt)
	switch pt.Site {
	case SitePutNBI:
		if chance(h, p.NBIDelayProb) {
			return Decision{DelayCycles: bounded(mix64(h), p.NBIDelayMaxCycles)}
		}
	case SiteQuiet:
		if chance(h, p.QuietStallProb) {
			return Decision{DelayCycles: bounded(mix64(h), p.QuietStallMaxCycles)}
		}
	case SiteBarrier:
		if chance(h, p.BarrierSkewProb) {
			return Decision{DelayCycles: bounded(mix64(h), p.BarrierSkewMaxCycles)}
		}
	case SiteTransfer:
		if chance(h, p.TransferDelayProb) {
			return Decision{DelayCycles: bounded(mix64(h), p.TransferDelayMaxCycles)}
		}
	case SiteBufferCap:
		if chance(h, p.CapShrinkProb) {
			floor := int64(p.CapFloor)
			if floor <= 0 {
				floor = 4
			}
			base := pt.Arg2
			if floor > base {
				floor = base
			}
			// Uniform in [floor, base].
			return Decision{Capacity: int(floor + int64(mix64(h)%uint64(base-floor+1)))}
		}
	case SiteAdvance, SiteYield, SiteHandler:
		if chance(h, p.YieldProb) {
			return Decision{Yields: int(bounded(mix64(h), int64(p.YieldMax)))}
		}
	}
	return Decision{}
}

// ClockSkewPercent implements ClockSkewer: a per-PE persistent slowdown
// derived from the seed.
func (p *Plan) ClockSkewPercent(pe int) int64 {
	if p.SkewProb <= 0 || p.SkewMaxPercent <= 0 {
		return 0
	}
	h := hashPoint(p.Seed, Point{PE: pe, Site: Site(-1)})
	if !chance(h, p.SkewProb) {
		return 0
	}
	return bounded(mix64(h), p.SkewMaxPercent)
}

// String returns a compact replay-friendly description.
func (p *Plan) String() string { return fmt.Sprintf("%s:%#x", p.Name, p.Seed) }

// --- named plan shapes ----------------------------------------------------

// planMakers maps every named plan shape to its constructor. Magnitudes
// are in virtual cycles; the default cost model's network latency is a
// few thousand cycles, so delays up to ~50k cycles are order-of-magnitude
// realistic stragglers rather than absurd outliers.
var planMakers = map[string]func(seed uint64) *Plan{
	// none: the control cell - no perturbation at all.
	"none": func(seed uint64) *Plan {
		return &Plan{Name: "none", Seed: seed}
	},
	// stragglers: some PEs run persistently slow and occasionally
	// stall long at barriers, stressing the BSP "everyone pays for the
	// slowest" clock synchronization and the COMM attribution.
	"stragglers": func(seed uint64) *Plan {
		return &Plan{
			Name: "stragglers", Seed: seed,
			BarrierSkewProb: 0.3, BarrierSkewMaxCycles: 50_000,
			SkewProb: 0.25, SkewMaxPercent: 80,
		}
	},
	// delayed-transfers: non-blocking sends issue late, quiets stall,
	// and buffer transfers dawdle, stressing delivery-order assumptions
	// and the double-buffer ack window.
	"delayed-transfers": func(seed uint64) *Plan {
		return &Plan{
			Name: "delayed-transfers", Seed: seed,
			NBIDelayProb: 0.4, NBIDelayMaxCycles: 20_000,
			QuietStallProb: 0.4, QuietStallMaxCycles: 30_000,
			TransferDelayProb: 0.3, TransferDelayMaxCycles: 20_000,
		}
	},
	// tiny-buffers: aggregation buffers shrink per generation, forcing
	// many small transfers and early flushes; termination must still
	// count every item.
	"tiny-buffers": func(seed uint64) *Plan {
		return &Plan{
			Name: "tiny-buffers", Seed: seed,
			CapShrinkProb: 0.7, CapFloor: 4,
		}
	},
	// yield-storm: extra scheduler yields at every schedule-only site,
	// maximizing goroutine interleavings without touching virtual state
	// (the plan to run under -race).
	"yield-storm": func(seed uint64) *Plan {
		return &Plan{
			Name: "yield-storm", Seed: seed,
			YieldProb: 0.5, YieldMax: 3,
		}
	},
	// chaos: everything at once, at moderate intensity.
	"chaos": func(seed uint64) *Plan {
		return &Plan{
			Name: "chaos", Seed: seed,
			NBIDelayProb: 0.2, NBIDelayMaxCycles: 10_000,
			QuietStallProb: 0.2, QuietStallMaxCycles: 15_000,
			BarrierSkewProb: 0.2, BarrierSkewMaxCycles: 25_000,
			TransferDelayProb: 0.2, TransferDelayMaxCycles: 10_000,
			CapShrinkProb: 0.4, CapFloor: 4,
			YieldProb: 0.3, YieldMax: 2,
			SkewProb: 0.15, SkewMaxPercent: 50,
		}
	},
}

// PlanNames returns every named plan shape, sorted.
func PlanNames() []string {
	names := make([]string, 0, len(planMakers))
	for n := range planMakers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NamedPlan builds the named plan shape with the given seed. The pair
// (name, seed) fully reproduces the plan.
func NamedPlan(name string, seed uint64) (*Plan, error) {
	mk, ok := planMakers[name]
	if !ok {
		return nil, fmt.Errorf("fault: unknown plan %q (have %v)", name, PlanNames())
	}
	return mk(seed), nil
}

// PlanFromSeed derives a full plan - shape and randomness - from a
// single seed, so one word reproduces everything. The shape is one of
// the perturbing named shapes (never "none").
func PlanFromSeed(seed uint64) *Plan {
	names := PlanNames()
	perturbing := names[:0:0]
	for _, n := range names {
		if n != "none" {
			perturbing = append(perturbing, n)
		}
	}
	p, _ := NamedPlan(perturbing[mix64(seed)%uint64(len(perturbing))], seed)
	return p
}
