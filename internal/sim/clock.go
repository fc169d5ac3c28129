package sim

import (
	"fmt"

	"actorprof/internal/tsc"
)

// TimingMode selects how per-PE clocks advance.
type TimingMode int

const (
	// Virtual advances clocks purely from cost-model charges. Runs are
	// fully deterministic; this is the default for tests and benches.
	Virtual TimingMode = iota
	// Hybrid adds real elapsed tsc cycles on top of the cost-model
	// charges, the closest analogue of the paper's rdtsc-based
	// measurement on real hardware.
	Hybrid
)

// String implements fmt.Stringer.
func (m TimingMode) String() string {
	switch m {
	case Virtual:
		return "virtual"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("TimingMode(%d)", int(m))
	}
}

// Clock is a per-PE cycle clock. In Virtual mode it advances only through
// Charge calls issued by the simulated runtime (network operations,
// instruction retirements). In Hybrid mode real tsc cycles accumulate as
// well.
//
// A Clock belongs to one PE goroutine, which alone reads and advances
// it. Nothing reads a clock across goroutines: barrier synchronization
// hands the barrier each arriver's Now() by value and advances the
// arriver's own clock to the returned maximum. So the charged component
// is a plain word; the race detector is what holds that line.
type Clock struct {
	mode    TimingMode
	charged int64
	// skewPercent inflates every Charge by skewPercent/100, modelling a
	// persistently slow PE (fault injection). Set once before the
	// owning goroutine starts; 0 means no skew.
	skewPercent int64
	// realBase is the tsc reading when the clock was created/reset;
	// only used in Hybrid mode.
	realBase int64
}

// NewClock creates a clock in the given mode, starting at zero.
func NewClock(mode TimingMode) *Clock {
	return &Clock{mode: mode, realBase: tsc.Cycles()}
}

// Mode returns the clock's timing mode.
func (c *Clock) Mode() TimingMode { return c.mode }

// SetSkewPercent makes every subsequent Charge cost p percent extra (a
// persistently slow PE, for fault injection). Must be called before the
// owning goroutine starts charging; negative p is ignored.
func (c *Clock) SetSkewPercent(p int64) {
	if p > 0 {
		c.skewPercent = p
	}
}

// SkewPercent returns the configured charge inflation.
func (c *Clock) SkewPercent() int64 { return c.skewPercent }

// Charge advances the clock by n cycles (inflated by any configured
// skew). Negative charges are ignored.
func (c *Clock) Charge(n int64) { c.ChargeRun(n, 1) }

// ChargeRun advances the clock by what count separate Charge(n) calls
// would: skew inflates, and rounds, each one rather than their sum.
func (c *Clock) ChargeRun(n, count int64) {
	if n > 0 {
		c.charged += count * SkewCharge(n, c.skewPercent)
	}
}

// Now returns the current clock value in cycles.
//
// In Hybrid mode the real elapsed-cycle component is inflated by the
// same skew percentage as charges: a fault-injected slow PE must be
// slow in *both* components, otherwise Hybrid runs would see the skew
// only on the (typically smaller) charged part and under-model the
// straggler that Virtual mode models fully.
func (c *Clock) Now() int64 {
	v := c.charged
	if c.mode == Hybrid {
		v += SkewCharge(tsc.Cycles()-c.realBase, c.skewPercent)
	}
	return v
}

// AdvanceTo charges the clock forward so that Now() >= target. Used by
// barrier synchronization: after a BSP synchronization point every PE has
// logically waited for the slowest one, so all clocks advance to the
// maximum. A target at or below the current value is a no-op.
func (c *Clock) AdvanceTo(target int64) {
	now := c.Now()
	if target > now {
		c.charged += target - now
	}
}

// Reset rewinds the clock to zero.
func (c *Clock) Reset() {
	c.charged = 0
	c.realBase = tsc.Cycles()
}
