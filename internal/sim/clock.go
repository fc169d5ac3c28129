package sim

// TimingMode names how per-PE clocks advance. It has one value, Virtual:
// a run is a pure function of its program, input, seed and machine model,
// never of the host it ran on.
type TimingMode int

// Virtual advances clocks purely from cost-model charges, so runs are
// fully deterministic.
const Virtual TimingMode = 0

// Clock is a per-PE cycle clock. It advances only through Charge calls
// issued by the simulated runtime (network operations, instruction
// retirements) and barrier synchronization.
//
// A Clock belongs to one PE goroutine, which alone reads and advances
// it. Nothing reads a clock across goroutines: barrier synchronization
// hands the barrier each arriver's Now() by value and advances the
// arriver's own clock to the returned maximum. So the charged component
// is a plain word; the race detector is what holds that line.
type Clock struct {
	charged int64
	// skewPercent inflates every Charge by skewPercent/100, modelling a
	// persistently slow PE (fault injection). Set once before the
	// owning goroutine starts; 0 means no skew.
	skewPercent int64
}

// NewClock creates a clock starting at zero. Virtual is the only mode.
func NewClock(TimingMode) *Clock { return &Clock{} }

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
func (c *Clock) Now() int64 { return c.charged }

// AdvanceTo charges the clock forward so that Now() >= target. Used by
// barrier synchronization: after a BSP synchronization point every PE has
// logically waited for the slowest one, so all clocks advance to the
// maximum. A target at or below the current value is a no-op.
func (c *Clock) AdvanceTo(target int64) {
	if target > c.charged {
		c.charged = target
	}
}
