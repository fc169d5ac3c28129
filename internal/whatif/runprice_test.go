package whatif_test

import (
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/fault"
	"actorprof/internal/fault/harness"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

// TestRunPricingUnderSkewAndNonDividingScale is the oracle for the price
// of an instruction run where nothing divides evenly. The batched apps
// run on PEs slowed by a percentage that rounds on every charge, so the
// identity projection only reproduces the live overall records if the
// live clock and the engine both price a run of n as n skewed messages.
// Then the instruction price is tripled: 53 dispatch instructions cost
// 26 cycles at IPC 2 and 79 at three cycles per two, not 3 x 26, so a
// projection that scaled a run's old total instead of re-pricing its
// messages would part from the replay.
func TestRunPricingUnderSkewAndNonDividingScale(t *testing.T) {
	m := sim.Machine{NumPEs: 4, PEsPerNode: 2}
	plan := &fault.Plan{Name: "slow-pes", Seed: 5, SkewProb: 0.75, SkewMaxPercent: 37}
	for _, name := range []string{"histogram", "isort", "permutation"} {
		app, ok := harness.FindApp(apps.ChaosApps(), name)
		if !ok {
			t.Fatalf("app %q not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			cost := sim.DefaultCostModel()
			coll, err := trace.NewCollector(trace.Config{Overall: true}, m)
			if err != nil {
				t.Fatal(err)
			}
			rec := sim.NewScheduleRecorder(m, cost)
			err = shmem.Run(shmem.Config{Machine: m, Cost: cost, Fault: plan, Schedule: rec}, func(pe *shmem.PE) {
				rt := actor.NewRuntime(pe, actor.RuntimeOptions{Collector: coll, BufferItems: app.BufferItems})
				if _, err := app.Run(rt); err != nil {
					panic(err)
				}
				rt.Close()
				pe.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			sched := rec.Schedule()
			var skewed, runs int
			for _, l := range sched.PEs {
				if l.Skew > 0 {
					skewed++
				}
				for _, ev := range l.Events {
					if _, n := sim.InstrRunParts(ev.Arg); ev.Kind == sim.EvInstr && n > 1 {
						runs++
					}
				}
			}
			if skewed == 0 || runs == 0 {
				t.Fatalf("%d slow PEs, %d instruction runs recorded: the case shows nothing", skewed, runs)
			}

			base, err := whatif.Project(sched, whatif.Identity(sched))
			if err != nil {
				t.Fatal(err)
			}
			for pe, r := range coll.Set().OverallByPE() {
				got := base.Totals.PerPE[pe]
				want := whatif.Totals{TMain: r.TMain, TProc: r.TProc, TComm: r.TComm, TTotal: r.TTotal}
				if got != want {
					t.Errorf("PE %d (skew %d%%): projected %+v, recorded %+v", pe, sched.PEs[pe].Skew, got, want)
				}
			}
			tripled := whatif.ScaledCost(sched.Cost, whatif.CostScales{Instr: 3})
			if tripled.InstructionCost(53) == 3*sched.Cost.InstructionCost(53) {
				t.Fatal("the scale divides the dispatch price; pick another")
			}
			if _, err := whatif.Compare(sched, whatif.Perturbation{Cost: tripled}); err != nil {
				t.Error(err)
			}
		})
	}
}
