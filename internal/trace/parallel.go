package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shard-ownership rules for the parallel trace pipeline (DESIGN.md §10):
// every parallel phase is a flat task list where task i owns result slot
// i exclusively - no task touches the Set, the skipped total, or another
// task's slot. Workers pull task indices from a single atomic counter,
// so the only synchronization is the counter and the final WaitGroup.
// The caller merges the slots *sequentially, in task order*, which makes
// the result - record order, skipped count, and which error is reported
// first - independent of both worker count and scheduling.

// defaultWorkers is the worker count used when ReadOptions.Workers <= 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// runWorkerTasks executes every task on a pool of at most workers
// goroutines. Tasks communicate results only through slots they own, or -
// each task receives the index of the worker executing it - through
// per-worker partial accumulators the caller merges afterwards. Only
// commutative merges may use the latter: the assignment of tasks to
// workers is scheduling-dependent.
func runWorkerTasks(workers int, tasks []func(worker int)) {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			t(0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tasks[i](worker)
			}
		}(w)
	}
	wg.Wait()
}
