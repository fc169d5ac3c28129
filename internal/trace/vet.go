package trace

// This file is the package's static-analysis contract, consumed by the
// actorvet analyzers (internal/analysis). See the matching vet.go in
// internal/shmem.

// CollectiveFuncs returns the names of package-level constructors that
// must be called uniformly across an SPMD run: the resulting *Collector
// is shared by every PE (the same pointer is passed to every Runtime), so
// constructing one under rank-dependent control flow diverges the PEs.
func CollectiveFuncs() []string {
	return []string{"NewCollector"}
}

// PairedMethods returns method-name pairs (opener -> closer) whose calls
// must balance within a function: a SegmentEnter without SegmentExit
// never flushes the segment's cycle and PAPI deltas, so the segment
// silently vanishes from segments.txt.
func PairedMethods() map[string]string {
	return map[string]string{"SegmentEnter": "SegmentExit"}
}
