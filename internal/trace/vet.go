package trace

// This file is the package's static-analysis contract, consumed by the
// actorvet analyzers (internal/analysis). See the matching vet.go in
// internal/shmem.

// PairedMethods returns method-name pairs (opener -> closer) whose calls
// must balance within a function: a SegmentEnter without SegmentExit
// never flushes the segment's cycle and PAPI deltas, so the segment
// silently vanishes from segments.txt.
func PairedMethods() map[string]string {
	return map[string]string{"SegmentEnter": "SegmentExit"}
}
