package conveyor

// This file is the package's static-analysis contract, consumed by the
// actorvet analyzers (internal/analysis). See the matching vet.go in
// internal/shmem.

// BorrowedViewMethods returns, for each *Conveyor method whose results
// include borrowed views into conveyor-owned storage, the indices of the
// borrowed results. Pull returns a slice into the pull ring that is
// valid only until the next progress; PushSlot returns a slot inside the
// push buffer that must be fully written before the next progress;
// PullRun returns both a payload view and a source-array view of the
// ring. Retaining any of them past a progress call reads (or writes)
// recycled memory — the escapingview analyzer enforces the
// copy-before-progress discipline from DESIGN.md §8.
func BorrowedViewMethods() map[string][]int {
	return map[string][]int{
		"Pull":     {0},
		"PushSlot": {0},
		"PullRun":  {0, 1},
	}
}

// ProgressMethods returns the names of *Conveyor methods that make (or
// may make) conveyor progress: they exchange buffers with other PEs and
// recycle the storage behind every outstanding borrowed view. Any value
// from BorrowedViewMethods is dead after any of these.
func ProgressMethods() []string {
	return []string{"Advance", "Push", "PushSlot", "Pull", "PullRun"}
}
