package core

import (
	"fmt"
	"os"
	"slices"
	"strconv"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/conveyor"
	"actorprof/internal/graph"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// DistKind names a row distribution for the case-study experiments.
type DistKind string

// The distributions the case study compares (plus the 1D Block ablation
// point beyond the paper).
const (
	DistCyclic DistKind = "cyclic"
	DistRange  DistKind = "range"
	DistBlock  DistKind = "block"
)

// Build constructs the distribution for graph g over p PEs.
func (k DistKind) Build(g *graph.Graph, p int) (graph.Distribution, error) {
	switch k {
	case DistCyclic:
		return graph.NewCyclicDist(p), nil
	case DistRange:
		return graph.NewRangeDist(g, p), nil
	case DistBlock:
		return graph.NewBlockDist(g.NumVertices(), p), nil
	default:
		return nil, k.Validate()
	}
}

// Validate reports whether k names a distribution Build constructs.
func (k DistKind) Validate() error {
	if k != DistCyclic && k != DistRange && k != DistBlock {
		return fmt.Errorf("core: unknown distribution %q", k)
	}
	return nil
}

// Label returns the paper's name for the distribution.
func (k DistKind) Label() string {
	switch k {
	case DistCyclic:
		return "1D Cyclic"
	case DistRange:
		return "1D Range"
	case DistBlock:
		return "1D Block"
	default:
		return string(k)
	}
}

// TriangleExperiment is one cell of the paper's case-study grid: a graph,
// a machine shape, and a distribution.
type TriangleExperiment struct {
	// Scale / EdgeFactor / Seed parameterize the R-MAT input. The paper
	// uses scale 16, edge factor 16; DefaultScale applies when zero.
	Scale      int
	EdgeFactor int
	Seed       uint64
	// NumPEs / PEsPerNode shape the machine (16/16 and 32/16 in the
	// paper); they have no default.
	NumPEs     int
	PEsPerNode int
	// Dist selects the row distribution.
	Dist DistKind
	// Trace selects ActorProf features; zero value enables everything.
	Trace trace.Config
	// BufferItems overrides the conveyor aggregation buffer size.
	BufferItems int
	// Topology overrides the conveyor routing scheme (default auto).
	Topology conveyor.Topology
	// APIProfile, when non-nil, counts every OpenSHMEM routine call
	// during the run (paper Section V-B's profiling-interface approach).
	APIProfile *shmem.APIProfile
	// Graph, when non-nil, is used instead of generating one (lets a
	// sweep share one input graph, as the paper's runs do).
	Graph *graph.Graph
}

// DefaultScale is the R-MAT scale used when TriangleExperiment.Scale is
// zero. The paper runs scale 16; the default here is 12 to keep the
// simulated benchmarks laptop-runnable, and the ACTORPROF_SCALE
// environment variable raises it (set 16 to match the paper exactly).
const DefaultScale = 12

// EnvScale resolves the effective default scale: ACTORPROF_SCALE when
// it is set, DefaultScale when it is not. A value that is set but is not
// a scale in 1..24 is an error that names it, never a silent default.
func EnvScale() (int, error) {
	s := os.Getenv("ACTORPROF_SCALE")
	if s == "" {
		return DefaultScale, nil
	}
	if v, err := strconv.Atoi(s); err == nil && v > 0 && v <= 24 {
		return v, nil
	}
	return 0, fmt.Errorf("core: ACTORPROF_SCALE=%q is not a scale in 1..24", s)
}

// FullTrace returns a trace configuration with every ActorProf feature
// enabled and the paper's two case-study PAPI events.
func FullTrace() trace.Config {
	return trace.Config{
		Logical:    true,
		Physical:   true,
		Overall:    true,
		PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS},
	}
}

// TriangleReport is the outcome of one case-study run.
type TriangleReport struct {
	// Set is the collected ActorProf trace.
	Set *trace.Set
	// Schedule is the recorded what-if schedule (see internal/whatif).
	Schedule *sim.Schedule
	// Triangles is the distributed count; Expected the serial reference.
	Triangles, Expected int64
	// Graph echoes the input (for sweeps that reuse it).
	Graph *graph.Graph
	// DistName is the human-readable distribution name.
	DistName string
}

// Validated reports whether the distributed count matched the serial
// reference (the paper's assertion-based validation), as it does in
// every report RunTriangle returns.
func (r *TriangleReport) Validated() bool { return r.Triangles == r.Expected }

// RunTriangle executes the paper's Section IV case study: distributed
// triangle counting over an R-MAT graph under the chosen distribution,
// with ActorProf attached, and validates the count: it is an error for
// any PE's count to differ from the serial reference. Only the kernel is
// profiled; graph construction and validation are excluded, as in the
// paper.
func RunTriangle(exp TriangleExperiment) (*TriangleReport, error) {
	if exp.EdgeFactor == 0 {
		exp.EdgeFactor = 16
	}
	if exp.Dist == "" {
		exp.Dist = DistCyclic
	}
	if !exp.Trace.Any() {
		exp.Trace = FullTrace()
	}
	g := exp.Graph
	if g == nil {
		var err error
		if exp.Scale == 0 {
			if exp.Scale, err = EnvScale(); err != nil {
				return nil, err
			}
		}
		g, err = graph.GenerateRMAT(graph.Graph500(exp.Scale, exp.EdgeFactor, exp.Seed))
		if err != nil {
			return nil, err
		}
	}
	machine := sim.Machine{NumPEs: exp.NumPEs, PEsPerNode: exp.PEsPerNode}
	if err := machine.Validate(); err != nil {
		return nil, err
	}
	dist, err := exp.Dist.Build(g, exp.NumPEs)
	if err != nil {
		return nil, err
	}

	counts := make([]int64, exp.NumPEs)
	set, sched, err := RunCaptured(Options{
		Machine:     machine,
		Trace:       exp.Trace,
		BufferItems: exp.BufferItems,
		Topology:    exp.Topology,
		APIProfile:  exp.APIProfile,
	}, func(rt *actor.Runtime) error {
		got, err := apps.TriangleCount(rt, g, dist)
		if err != nil {
			return err
		}
		counts[rt.PE().Rank()] = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	expected := g.CountTrianglesSerial()
	for pe, c := range counts {
		if c != expected {
			return nil, fmt.Errorf("core: PE %d counted %d triangles under %s, the serial count is %d",
				pe, c, exp.Dist, expected)
		}
	}
	return &TriangleReport{
		Set:       set,
		Schedule:  sched,
		Triangles: counts[0],
		Expected:  expected,
		Graph:     g,
		DistName:  exp.Dist.Label(),
	}, nil
}

// The arithmetic of the case study's claims, over any trace.Source.

// MaxRatio is the ratio of two per-PE series' maxima - how much heavier
// one run's hottest PE is than another's - or 0 when either is empty or
// b's maximum is 0.
func MaxRatio(a, b []int64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return ratio(slices.Max(a), slices.Max(b))
}

// MaxTotal is the largest per-PE T_TOTAL: the run's length in cycles.
func MaxTotal(s trace.Source) int64 {
	var m int64
	for _, r := range s.OverallRecords() {
		m = max(m, r.TTotal)
	}
	return m
}

// Speedup is how many times shorter fast's run is than slow's, by
// MaxTotal, or 0 when fast's is 0.
func Speedup(slow, fast trace.Source) float64 { return ratio(MaxTotal(slow), MaxTotal(fast)) }

// Shares returns the MAIN, COMM and PROC cycles summed over every PE as
// fractions of the summed T_TOTAL (all 0 for a run without one).
func Shares(s trace.Source) (main, comm, proc float64) {
	var tm, tc, tp, tt int64
	for _, r := range s.OverallRecords() {
		tm, tc, tp, tt = tm+r.TMain, tc+r.TComm, tp+r.TProc, tt+r.TTotal
	}
	if tt == 0 {
		return 0, 0, 0
	}
	return float64(tm) / float64(tt), float64(tc) / float64(tt), float64(tp) / float64(tt)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
