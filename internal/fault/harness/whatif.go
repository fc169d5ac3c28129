package harness

import (
	"fmt"
	"math"

	"actorprof/internal/actor"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/whatif"
)

// RandomPerturbation derives a deterministic pseudo-random what-if
// hypothesis from one seed word: every cost group scaled by an
// independent factor in [1/4, 4), log-uniformly. The same seed always
// yields the same perturbation, so a failing what-if soak cell replays
// exactly like a failing chaos cell.
func RandomPerturbation(base sim.CostModel, seed uint64) whatif.Perturbation {
	h := splitmix64(seed ^ 0x243f6a8885a308d3)
	f := func() float64 {
		h = splitmix64(h)
		return math.Pow(2, float64(h%4096)/1024-2)
	}
	sc := whatif.CostScales{Network: f(), Local: f(), Quiet: f(), Instr: f(), Ingest: f()}
	return whatif.Perturbation{Cost: whatif.ScaledCost(base, sc)}
}

// WhatIfCell is the what-if differential soak: it runs the cell under
// schedule capture (fault plan and all - injected delays and clock skew
// are recorded like any other charge) and then validates the causal
// projection engine on the recorded schedule, both unperturbed and
// under a seed-derived random perturbation. whatif.Compare errors when
// the analytic projection disagrees with a deterministic replay by even
// one cycle, which makes this cell a soak over the profiler itself, not
// just the apps.
func WhatIfCell(c Cell, seed uint64) error {
	if c.App.Run == nil {
		return fmt.Errorf("harness: app %q has no Run", c.App.Name)
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	cost := sim.DefaultCostModel()
	rec := sim.NewScheduleRecorder(c.Machine, cost)
	bufItems := c.App.BufferItems
	if bufItems == 0 {
		bufItems = 16
	}
	err := shmem.Run(shmem.Config{Machine: c.Machine, Cost: cost, Fault: c.Plan, Schedule: rec}, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: bufItems})
		if _, err := c.App.Run(rt); err != nil {
			panic(err)
		}
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		return fmt.Errorf("what-if cell run failed; replay spec %q: %w", c.Spec().String(), err)
	}
	sched := rec.Schedule()
	for _, p := range []whatif.Perturbation{whatif.Identity(sched), RandomPerturbation(cost, seed)} {
		if _, err := whatif.Compare(sched, p); err != nil {
			return fmt.Errorf("what-if differential failed; replay spec %q seed %#x: %w", c.Spec().String(), seed, err)
		}
	}
	return nil
}
