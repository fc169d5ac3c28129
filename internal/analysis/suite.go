package analysis

// Rules is the full actorvet suite, in rule-ID order. The directive
// checks (baddirective, staleignore) share the rule namespace but are
// emitted by Run itself, not listed here.
var Rules = []Rule{
	{
		Name:     "rawoffset",
		Doc:      "raw symmetric-heap offset arithmetic (bare numeric literals) passed to an RMA call; bypasses the typed Int64Array bounds checks",
		Severity: SeverityWarning,
		Run:      runRawOffset,
	},
}
