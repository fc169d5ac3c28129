package analysis

// Rules is the full actorvet suite, in rule-ID order. The directive
// checks (baddirective, staleignore) share the rule namespace but are
// emitted by Run itself, not listed here.
var Rules = []Rule{
	{
		Name:     "escapingview",
		Doc:      "borrowed conveyor view (Pull/PushSlot/PullRun result) or ProcessBatch scratch slice escapes its borrow — stored to a field, global, channel, or goroutine, or used after conveyor/actor progress recycled its backing buffer; copy the elements first (append([]T(nil), v...))",
		Severity: SeverityError,
		Run:      runEscapingView,
	},
	{
		Name:     "rawoffset",
		Doc:      "raw symmetric-heap offset arithmetic (bare numeric literals) passed to an RMA call; bypasses the typed Int64Array bounds checks",
		Severity: SeverityWarning,
		Run:      runRawOffset,
	},
	{
		Name:     "unpairedregion",
		Doc:      "unbalanced region within a function: Pause without Resume, PAPI EventSet Start without Stop, SegmentEnter without SegmentExit, or a Malloc whose result is discarded",
		Severity: SeverityWarning,
		Run:      runUnpairedRegion,
	},
}
