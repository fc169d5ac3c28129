package apps

import (
	"fmt"

	"actorprof/internal/actor"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
)

// HistogramConfig parameterizes the Listing 1-2 program.
type HistogramConfig struct {
	// UpdatesPerPE is N in Listing 1: the number of asynchronous
	// increments each PE issues.
	UpdatesPerPE int
	// TableSizePerPE is the length of each PE's local array.
	TableSizePerPE int
	// Seed drives the pseudo-random destinations/indices.
	Seed uint64
}

// HistogramResult reports one PE's view of the run.
type HistogramResult struct {
	// Local is this PE's final bucket array.
	Local []int64
	// GlobalMass is the sum of all buckets on all PEs; it must equal
	// NumPEs * UpdatesPerPE.
	GlobalMass int64
}

// Histogram is the paper's Listing 1-2 program: each PE sends
// UpdatesPerPE increments to pseudo-random (PE, index) destinations; the
// handler bumps the local array without atomics. It is the canonical
// FA-BSP hello-world and the bale "histo" kernel.
func Histogram(rt *actor.Runtime, cfg HistogramConfig) (HistogramResult, error) {
	if cfg.UpdatesPerPE < 0 || cfg.TableSizePerPE <= 0 {
		return HistogramResult{}, fmt.Errorf("apps: bad histogram config %+v", cfg)
	}
	pe := rt.PE()
	npes := pe.NumPEs()
	larray := make([]int64, cfg.TableSizePerPE)

	sel, err := actor.NewActor(rt, actor.Int64Codec())
	if err != nil {
		return HistogramResult{}, fmt.Errorf("apps: histogram actor: %w", err)
	}
	handlerWork := papi.Work{Ins: 6, LstIns: 2, Cyc: 4}
	// The hot handler as a data-parallel batch: one invocation per
	// delivered pull-ring run, a flat increment loop inside.
	sel.ProcessBatch(0, func(idxs []int64, srcPEs []int) {
		rt.WorkN(handlerWork, len(idxs))
		for _, idx := range idxs {
			larray[idx]++ // no atomics: the runtime serializes handlers
		}
	})

	rt.Finish(func() {
		sel.Start()
		rng := splitmix{state: cfg.Seed + uint64(pe.Rank())*0x9e3779b97f4a7c15}
		for i := 0; i < cfg.UpdatesPerPE; i++ {
			r := rng.next()
			dst := int(r % uint64(npes))
			idx := int64((r >> 32) % uint64(cfg.TableSizePerPE))
			rt.Work(papi.Work{Ins: 8, LstIns: 1, Cyc: 5}) // index computation
			sel.Send(0, idx, dst)
		}
		sel.Done(0)
	})

	var local int64
	for _, v := range larray {
		local += v
	}
	mass := pe.AllReduceInt64(shmem.OpSum, local)
	return HistogramResult{Local: larray, GlobalMass: mass}, nil
}

// splitmix is a tiny deterministic PRNG shared by the app workload
// generators.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
