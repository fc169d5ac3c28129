package actor

// This file is the package's static-analysis contract, consumed by the
// actorvet analyzers (internal/analysis). See the matching vet.go in
// internal/shmem.

// ProgressMethods returns the names of *Selector methods that drive (or
// ride on) conveyor progress underneath: each may trigger a buffer
// exchange that recycles the storage behind borrowed conveyor views, so
// the escapingview analyzer treats them as lifetime boundaries exactly
// like the conveyor's own progress methods.
func ProgressMethods() []string {
	return []string{"Send", "Progress", "Done", "DoneAll"}
}

// BatchHandlerMethods returns, for each *Selector method that installs a
// data-parallel batch handler, the index of the handler-function
// argument. The handler's slice parameters (msgs, srcPEs) are borrowed
// runtime scratch, valid only during the invocation (DESIGN.md §15):
// the runtime recycles them for the next batch, so retaining either past
// the handler return reads recycled memory. The escapingview analyzer
// seeds them as tracked borrowed views.
func BatchHandlerMethods() map[string]int {
	return map[string]int{"ProcessBatch": 1}
}

// PairedMethods returns *Runtime method-name pairs (opener -> closer)
// whose calls must balance within a function: a Pause without a matching
// Resume silently discards the rest of the run's trace, leaving holes
// that read as missing communication in the paper's profiles.
func PairedMethods() map[string]string {
	return map[string]string{"Pause": "Resume"}
}
