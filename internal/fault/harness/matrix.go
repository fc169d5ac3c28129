package harness

import (
	"actorprof/internal/fault"
	"actorprof/internal/sim"
	"actorprof/internal/stats"
)

// DefaultMachines returns the machine shapes the differential matrix
// covers by default: a single-node box (1D linear conveyor topology)
// and a two-node cluster (2D mesh routing with intermediate hops).
func DefaultMachines() []sim.Machine {
	return []sim.Machine{
		{NumPEs: 4, PEsPerNode: 4},
		{NumPEs: 8, PEsPerNode: 4},
	}
}

// Cells enumerates the full differential matrix: every app under every
// named plan on every machine, each cell seeded deterministically from
// the master seed.
func Cells(apps []App, planNames []string, machines []sim.Machine, master uint64) ([]Cell, error) {
	cells := make([]Cell, 0, len(apps)*len(planNames)*len(machines))
	for _, app := range apps {
		for _, pn := range planNames {
			for _, m := range machines {
				plan, err := fault.NamedPlan(pn, DeriveSeed(master, app.Name, pn, m))
				if err != nil {
					return nil, err
				}
				cells = append(cells, Cell{App: app, Machine: m, Plan: plan})
			}
		}
	}
	return cells, nil
}

// Failure records one failed soak cell with everything the nightly job
// needs to upload for replay: the compact spec and the full plan.
type Failure struct {
	Spec Spec        `json:"spec"`
	Plan *fault.Plan `json:"plan"`
	Err  string      `json:"error"`
}

// RunRandom executes n pseudo-randomly composed cells - app, machine,
// and plan shape all derived from the seed - and returns the failures.
// logf, when non-nil, receives one progress line per cell. This is the
// soak entry point: a single seed word reproduces the whole batch, and
// each failure's spec reproduces its cell alone.
func RunRandom(apps []App, machines []sim.Machine, seed uint64, n int, logf func(format string, args ...any)) []Failure {
	var failures []Failure
	rng := stats.SplitMix64(seed)
	for i := 0; i < n; i++ {
		h := rng.Next()
		cell := Cell{
			App:     apps[h%uint64(len(apps))],
			Machine: machines[(h>>20)%uint64(len(machines))],
			Plan:    fault.PlanFromSeed(splitmix64(h)),
		}
		if logf != nil {
			logf("cell %d/%d: %s", i+1, n, cell.Spec())
		}
		if _, err := Run(cell); err != nil {
			failures = append(failures, Failure{
				Spec: cell.Spec(),
				Plan: cell.Plan,
				Err:  err.Error(),
			})
			if logf != nil {
				logf("FAIL %s: %v", cell.Spec(), err)
			}
		}
	}
	return failures
}
