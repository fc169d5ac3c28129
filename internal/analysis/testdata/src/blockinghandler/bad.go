// Package fixture: handlers that block inside conveyor progress.
package fixture

import (
	"actorprof/internal/actor"
	"actorprof/internal/conveyor"
	"actorprof/internal/shmem"
)

func blockingLambdaHandler(pe *shmem.PE, rt *actor.Runtime, sel *actor.Selector[int64]) {
	sel.Process(0, func(msg int64, srcPE int) {
		pe.Barrier()         // line 12: barrier in handler
		rt.Finish(func() {}) // line 13: nested finish in handler
		sel.Send(0, msg, 1)  // fine: handlers may send
	})
}

func namedHandlerUser(sel *actor.Selector[int64]) {
	sel.Process(1, blockingNamedHandler)
}

func blockingNamedHandler(msg int64, srcPE int) {
	var pe *shmem.PE
	pe.WaitUntilInt64(8, shmem.CmpEq, msg) // line 24: wait-until in handler
}

func advanceInHandler(sel *actor.Selector[int64], conv *conveyor.Conveyor) {
	sel.Process(0, func(msg int64, srcPE int) {
		conv.Advance(false) // line 29: conveyor advance in handler
	})
}

func cleanHandler(sel *actor.Selector[int64]) {
	sel.Process(0, func(msg int64, srcPE int) {
		sel.Send(1, msg+1, int(msg)%4)
	})
}

func blockingBatchHandler(pe *shmem.PE, rt *actor.Runtime, sel *actor.Selector[int64]) {
	sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {
		pe.Barrier()         // line 41: barrier in a batch handler
		rt.Finish(func() {}) // line 42: nested finish in a batch handler
	})
}
