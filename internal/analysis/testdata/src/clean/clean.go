// Package fixture: a well-behaved FA-BSP program; every analyzer must
// stay silent here.
package fixture

import (
	"actorprof/internal/actor"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
)

func wellBehaved(pe *shmem.PE, rt *actor.Runtime) error {
	counts := shmem.AllocInt64Array(pe, 64)
	sel, err := actor.NewActor(rt, actor.Int64Codec())
	if err != nil {
		return err
	}
	sel.Process(0, func(msg int64, srcPE int) {
		counts.Set(int(msg), counts.Get(int(msg))+1)
	})
	rt.Finish(func() {
		sel.Start()
		for i := 0; i < 100; i++ {
			sel.Send(0, int64(i%64), i%pe.NumPEs())
		}
		sel.Done(0)
	})
	total := pe.AllReduceInt64(shmem.OpSum, counts.Get(0))
	if pe.Rank() == 0 {
		println("total:", total)
	}
	return nil
}

func measuredSegment(rt *actor.Runtime, engine *papi.Engine) []int64 {
	es, _ := papi.NewEventSet(engine, papi.TOT_INS)
	var deltas []int64
	rt.Unprofiled(func() {
		es.Start()
		deltas = es.Stop()
	})
	return deltas
}
