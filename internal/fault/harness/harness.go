// Package harness is the reusable chaos-test harness on top of the
// fault-injection layer: it runs registered FA-BSP applications at
// multiple PE counts under a matrix of fault plans, records each run's
// schedule, checks the run against the application's sequential oracle
// and the schedule against the what-if engine, and - when a run fails -
// reports a single replay spec (app/plan/PEs/seed) that reproduces the
// exact perturbation schedule.
//
// The harness owns no application knowledge: packages register their
// apps as App values (internal/apps does this in ChaosApps), and the
// differential tests, the replay path, and the nightly soak binary all
// drive the same Run entry point.
package harness

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"actorprof/internal/actor"
	"actorprof/internal/fault"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/stats"
	"actorprof/internal/whatif"
)

// App is one chaos-testable application: an SPMD body plus the oracle
// that validates its gathered per-PE results. Run and Check must be
// deterministic given the machine shape - the oracle is what turns a
// perturbed schedule into a pass/fail verdict.
type App struct {
	// Name identifies the app in replay specs. No slashes.
	Name string
	// BufferItems sets the actor runtime's aggregation buffer size
	// (0 = 16). Small buffers keep chaos cells fast and force frequent
	// transfers.
	BufferItems int
	// Run executes the app on one PE and returns that PE's result.
	// Called on every PE's goroutine; an error fails the cell.
	Run func(rt *actor.Runtime) (any, error)
	// Check validates the per-PE results (indexed by rank) against the
	// app's sequential oracle: exact outputs, tolerance comparisons, or
	// schedule-independent invariants. Nil means Run errors are the only
	// failure mode.
	Check func(m sim.Machine, perPE []any) error
}

// Cell is one chaos run: an app on a machine shape under a fault plan.
type Cell struct {
	App     App
	Machine sim.Machine
	Plan    *fault.Plan
}

// Spec returns the cell's replayable coordinates.
func (c Cell) Spec() Spec {
	return Spec{
		App:        c.App.Name,
		Plan:       c.Plan.Name,
		NumPEs:     c.Machine.NumPEs,
		PEsPerNode: c.Machine.PEsPerNode,
		Seed:       c.Plan.Seed,
	}
}

// Spec identifies a cell compactly: everything needed to reproduce the
// exact perturbation schedule. Its String form is what failure messages
// print and what Replay consumes.
type Spec struct {
	App        string `json:"app"`
	Plan       string `json:"plan"`
	NumPEs     int    `json:"num_pes"`
	PEsPerNode int    `json:"pes_per_node"`
	Seed       uint64 `json:"seed"`
}

// String renders the spec as app/plan/NxP/0xseed.
func (s Spec) String() string {
	return fmt.Sprintf("%s/%s/%dx%d/%#x", s.App, s.Plan, s.NumPEs, s.PEsPerNode, s.Seed)
}

// ParseSpec parses the String form.
func ParseSpec(str string) (Spec, error) {
	parts := strings.Split(str, "/")
	if len(parts) != 4 {
		return Spec{}, fmt.Errorf("harness: spec %q: want app/plan/NxP/seed", str)
	}
	var s Spec
	s.App, s.Plan = parts[0], parts[1]
	n, p, ok := strings.Cut(parts[2], "x")
	if !ok {
		return Spec{}, fmt.Errorf("harness: spec %q: machine %q is not NxP", str, parts[2])
	}
	var err error
	if s.NumPEs, err = strconv.Atoi(n); err != nil {
		return Spec{}, fmt.Errorf("harness: spec %q: bad PE count: %w", str, err)
	}
	if s.PEsPerNode, err = strconv.Atoi(p); err != nil {
		return Spec{}, fmt.Errorf("harness: spec %q: bad PEs-per-node: %w", str, err)
	}
	if s.Seed, err = strconv.ParseUint(parts[3], 0, 64); err != nil {
		return Spec{}, fmt.Errorf("harness: spec %q: bad seed: %w", str, err)
	}
	return s, nil
}

// Run executes one cell and returns its recorded schedule. The cell
// passes when the app's oracle accepts the gathered per-PE results and
// the what-if engine's analytic projection of the schedule agrees with
// a deterministic replay bit for bit, both unperturbed and under the
// seed's RandomPerturbation - so every chaos cell is also a soak of the
// profiler itself. A failure is wrapped with the cell's replay spec, so
// the one line a CI log shows is enough to reproduce the schedule.
func Run(c Cell) (*sim.Schedule, error) {
	if c.App.Run == nil {
		return nil, fmt.Errorf("harness: app %q has no Run", c.App.Name)
	}
	if err := c.Machine.Validate(); err != nil {
		return nil, err
	}
	cost := sim.DefaultCostModel()
	rec := sim.NewScheduleRecorder(c.Machine, cost)
	bufItems := c.App.BufferItems
	if bufItems == 0 {
		bufItems = 16
	}
	results := make([]any, c.Machine.NumPEs)
	err := shmem.Run(shmem.Config{Machine: c.Machine, Cost: cost, Fault: c.Plan, Schedule: rec}, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: bufItems})
		res, err := c.App.Run(rt)
		if err != nil {
			panic(err)
		}
		results[pe.Rank()] = res
		rt.Close()
		pe.Barrier()
	})
	if err == nil && c.App.Check != nil {
		err = c.App.Check(c.Machine, results)
	}
	if err != nil {
		return nil, fmt.Errorf("chaos cell failed; replay spec %q: %w", c.Spec().String(), err)
	}
	sched := rec.Schedule()
	for _, p := range []whatif.Perturbation{whatif.Identity(sched), RandomPerturbation(cost, c.Plan.Seed)} {
		if _, err := whatif.Compare(sched, p); err != nil {
			return nil, fmt.Errorf("what-if differential failed; replay spec %q: %w", c.Spec().String(), err)
		}
	}
	return sched, nil
}

// Replay re-runs a failing cell from its spec alone: the app is looked
// up by name and the plan rebuilt from (plan name, seed), and the cell
// runs exactly as the matrix and the soak run it.
func Replay(apps []App, spec Spec) (*sim.Schedule, error) {
	app, ok := FindApp(apps, spec.App)
	if !ok {
		return nil, fmt.Errorf("harness: replay spec names unknown app %q", spec.App)
	}
	plan, err := fault.NamedPlan(spec.Plan, spec.Seed)
	if err != nil {
		return nil, err
	}
	return Run(Cell{
		App:     app,
		Machine: sim.Machine{NumPEs: spec.NumPEs, PEsPerNode: spec.PEsPerNode},
		Plan:    plan,
	})
}

// ValuesDiff compares the values of two recorded schedules and
// describes the first difference by PE and event kind, or returns ""
// when they are equal. Values are each PE's skew, the multiset of its
// charged events (an instruction run counts as its messages' charges
// one by one) and the identity replay's makespan. Orders are not
// compared: the event sequence, where instruction runs break, marker
// events and so the regime split follow the FA-BSP interleaving
// (DESIGN.md §14).
func ValuesDiff(a, b *sim.Schedule) string {
	if len(a.PEs) != len(b.PEs) {
		return fmt.Sprintf("PE count differs: %d vs %d", len(a.PEs), len(b.PEs))
	}
	for pe := range a.PEs {
		if sa, sb := a.PEs[pe].Skew, b.PEs[pe].Skew; sa != sb {
			return fmt.Sprintf("PE %d skew differs: %d%% vs %d%%", pe, sa, sb)
		}
		ca, cb := charges(a.PEs[pe]), charges(b.PEs[pe])
		var differ []sim.Event
		for _, m := range []map[sim.Event]int64{ca, cb} {
			for e := range m {
				if ca[e] != cb[e] {
					differ = append(differ, e)
				}
			}
		}
		if len(differ) > 0 {
			e := slices.MinFunc(differ, func(x, y sim.Event) int {
				return cmp.Or(cmp.Compare(x.Kind, y.Kind), cmp.Compare(x.Arg, y.Arg))
			})
			return fmt.Sprintf("PE %d %s charges differ: arg %d charged %d times vs %d", pe, e.Kind, e.Arg, ca[e], cb[e])
		}
	}
	ma, errA := whatif.Replay(a, whatif.Identity(a))
	mb, errB := whatif.Replay(b, whatif.Identity(b))
	switch {
	case errA != nil || errB != nil:
		return fmt.Sprintf("identity replay failed: %v / %v", errA, errB)
	case ma.Makespan != mb.Makespan:
		return fmt.Sprintf("identity replay makespan differs: %d vs %d cycles", ma.Makespan, mb.Makespan)
	}
	return ""
}

// charges counts a PE's charged events by (kind, arg), an instruction
// run split into its per-message charges.
func charges(l *sim.PELog) map[sim.Event]int64 {
	m := make(map[sim.Event]int64)
	c := l.Walk(new(sim.Block))
	for evs := c.Next(); evs != nil; evs = c.Next() {
		for _, e := range evs {
			switch {
			case e.Kind == sim.EvInstr:
				ins, n := sim.InstrRunParts(e.Arg)
				m[sim.Event{Kind: e.Kind, Arg: ins}] += n
			case e.Kind.Charged():
				m[e]++
			}
		}
	}
	return m
}

// RandomPerturbation derives a deterministic pseudo-random what-if
// hypothesis from one seed word: every cost group scaled by an
// independent factor in [1/4, 4), log-uniformly. The same seed always
// yields the same perturbation, so a failing what-if check replays
// exactly like a failing oracle.
func RandomPerturbation(base sim.CostModel, seed uint64) whatif.Perturbation {
	h := splitmix64(seed ^ 0x243f6a8885a308d3)
	f := func() float64 {
		h = splitmix64(h)
		return math.Pow(2, float64(h%4096)/1024-2)
	}
	sc := whatif.CostScales{Network: f(), Local: f(), Quiet: f(), Instr: f(), Ingest: f()}
	return whatif.Perturbation{Cost: whatif.ScaledCost(base, sc)}
}

// FindApp returns the registered app with the given name.
func FindApp(apps []App, name string) (App, bool) {
	for _, a := range apps {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// DeriveSeed maps a master seed and a cell's coordinates to the cell's
// own seed, so one master word spreads decorrelated randomness across a
// whole matrix while every cell stays individually replayable.
func DeriveSeed(master uint64, app, plan string, m sim.Machine) uint64 {
	// Mix the master first: folding it in raw would let (master, first
	// byte) pairs cancel (1^'b' == 2^'a').
	h := splitmix64(master ^ 0x6a09e667f3bcc909)
	for _, s := range []string{app, plan} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 0x100000001b3
		}
		h = splitmix64(h)
	}
	h ^= uint64(m.NumPEs)<<32 | uint64(m.PEsPerNode)
	return splitmix64(h)
}

// splitmix64 is one stats.SplitMix64 step from state z: the harness's
// seed mixer, without sharing state with package fault.
func splitmix64(z uint64) uint64 {
	s := stats.SplitMix64(z)
	return s.Next()
}
