package apps

import (
	"flag"
	"testing"

	"actorprof/internal/fault"
	"actorprof/internal/fault/harness"
	"actorprof/internal/sim"
)

var (
	chaosSeed   = flag.Uint64("chaos.seed", 0xac708f, "master seed for the chaos differential matrix")
	chaosReplay = flag.String("chaos.replay", "",
		"replay one chaos cell from its spec (app/plan/NxP/0xseed) instead of the full matrix")
)

// chaosPlans is the perturbation battery every app must survive: point
// stalls and stragglers, delivery delays, shrunken aggregation buffers,
// a shaken goroutine schedule, and all of them at once. It is every
// plan shape but "none".
var chaosPlans = []string{"stragglers", "delayed-transfers", "tiny-buffers", "yield-storm", "chaos"}

// TestChaosDifferentialMatrix runs every registered app under every
// chaos plan at every machine shape (single-node 1D and two-node mesh).
// Each cell is harness.Run: the run is checked against the app's
// sequential oracle, and its recorded schedule against the what-if
// engine (projection equals replay, unperturbed and under a seed-derived
// cost perturbation). A failing cell's message carries the replay spec
// for -chaos.replay.
func TestChaosDifferentialMatrix(t *testing.T) {
	if *chaosReplay != "" {
		t.Skip("replaying a single cell via -chaos.replay")
	}
	cells, err := harness.Cells(ChaosApps(), chaosPlans, harness.DefaultMachines(), *chaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.Spec().String(), func(t *testing.T) {
			t.Parallel()
			if _, err := harness.Run(cell); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosWhatIfMatrix is the causal-profiler soak cell of the chaos
// matrix: every app runs once per machine shape under a randomized
// fault plan (fault.PlanFromSeed), so plan shapes the fixed matrix
// pairs with other apps get covered too. Each cell is harness.Run, whose
// what-if differential validates the recorded schedule - the analytic
// projection must match a deterministic replay bit-for-bit, both
// unperturbed and under a seed-derived random cost perturbation.
func TestChaosWhatIfMatrix(t *testing.T) {
	if *chaosReplay != "" {
		t.Skip("replaying a single cell via -chaos.replay")
	}
	for _, app := range ChaosApps() {
		for _, m := range harness.DefaultMachines() {
			seed := harness.DeriveSeed(*chaosSeed, app.Name, "whatif", m)
			cell := harness.Cell{App: app, Machine: m, Plan: fault.PlanFromSeed(seed)}
			t.Run(cell.Spec().String(), func(t *testing.T) {
				t.Parallel()
				if _, err := harness.Run(cell); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestChaosReplayCell re-runs one reported cell:
//
//	go test ./internal/apps -run TestChaosReplayCell -chaos.replay 'bfs/tiny-buffers/8x4/0x1234'
func TestChaosReplayCell(t *testing.T) {
	if *chaosReplay == "" {
		t.Skip("no -chaos.replay spec given")
	}
	spec, err := harness.ParseSpec(*chaosReplay)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := harness.Replay(ChaosApps(), spec)
	if err != nil {
		t.Fatalf("replayed failure:\n%v", err)
	}
	t.Logf("cell passed on replay; %d schedule events", sched.Events())
}

// orderFollowingApps are the chaos apps whose values are outside the
// replay contract: components' label-propagation rounds and
// permutation's dart retries follow the interleaving - which PE's
// proposal lands first decides how many rounds or throws a run takes -
// so their charged events differ from run to run even on one node.
// Their oracles still hold in every matrix cell.
var orderFollowingApps = map[string]bool{"components": true, "permutation": true}

// TestChaosReplaySchedulesIdentical is the acceptance check for the
// replay guarantee on real apps: running the same seeded cell twice
// records schedules with equal values (harness.ValuesDiff - per-PE
// skews, charged-event multisets and the identity replay's makespan).
// Every app outside orderFollowingApps, under every perturbing plan, on
// a single-node machine (1D topology; mesh endgame cut points are
// scheduling-dependent and covered by the oracles only).
func TestChaosReplaySchedulesIdentical(t *testing.T) {
	if *chaosReplay != "" {
		t.Skip("replaying a single cell via -chaos.replay")
	}
	m := sim.Machine{NumPEs: 4, PEsPerNode: 4}
	for _, app := range ChaosApps() {
		if orderFollowingApps[app.Name] {
			continue
		}
		for _, planName := range chaosPlans {
			plan, err := fault.NamedPlan(planName, harness.DeriveSeed(*chaosSeed, app.Name, planName, m))
			if err != nil {
				t.Fatal(err)
			}
			cell := harness.Cell{App: app, Machine: m, Plan: plan}
			t.Run(cell.Spec().String(), func(t *testing.T) {
				t.Parallel()
				a, errA := harness.Run(cell)
				b, errB := harness.Run(cell)
				if errA != nil || errB != nil {
					t.Fatalf("runs failed: %v / %v", errA, errB)
				}
				if d := harness.ValuesDiff(a, b); d != "" {
					t.Fatalf("replay diverged: %s", d)
				}
			})
		}
	}
}
