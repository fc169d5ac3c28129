// Package fixture: message handlers mutating state shared across PEs.
package fixture

import (
	"actorprof/internal/actor"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

var totalSeen int64

func sharedAcrossPEs() error {
	var grandTotal int64
	return shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: 4, PEsPerNode: 2}}, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		sel, err := actor.NewActor(rt, actor.Int64Codec())
		if err != nil {
			return
		}
		sel.Process(0, func(msg int64, src int) {
			totalSeen++       // line 21: package-level state, raced by every PE
			grandTotal += msg // line 22: captured from outside the SPMD closure
		})
		rt.Finish(func() {
			sel.Start()
			sel.Done(0)
		})
	})
}

var dropped int64

func countDrop(msg int64, src int) {
	dropped++ // line 34: package-level write in a named handler
}

func namedHandler(sel *actor.Selector[int64]) {
	sel.Process(0, countDrop)
}

func batchWritesGlobal(sel *actor.Selector[int64]) {
	sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {
		totalSeen += int64(len(msgs)) // line 43: package-level write in a batch handler
	})
}
