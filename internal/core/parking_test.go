package core

import (
	"reflect"
	"runtime"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/conveyor"
	"actorprof/internal/graph"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// skewedTriangleRun runs the triangle-count kernel on a cyclic R-MAT
// distribution - one hot PE, the rest mostly waiting - at 64 PEs over 4
// nodes, returning the trace and each PE's wait counters.
func skewedTriangleRun(t *testing.T, g *graph.Graph, cfg trace.Config) (*trace.Set, []shmem.ProgressStats) {
	t.Helper()
	const npes, perNode = 64, 16
	dist, err := DistCyclic.Build(g, npes)
	if err != nil {
		t.Fatal(err)
	}
	want := g.CountTrianglesSerial()
	waits := make([]shmem.ProgressStats, npes)
	set, err := Run(Options{
		Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode},
		Trace:   cfg,
	}, func(rt *actor.Runtime) error {
		got, err := apps.TriangleCount(rt, g, dist)
		if err != nil {
			return err
		}
		if got != want {
			t.Errorf("PE %d counted %d triangles, want %d", rt.PE().Rank(), got, want)
		}
		waits[rt.PE().Rank()] = rt.PE().ProgressStats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return set, waits
}

func TestParkedProgressEngagesOnSkewedRun(t *testing.T) {
	// With spin-yield progress every PE yields once per scheduler round
	// for as long as the hottest PE is still sending: PEs x the hot PE's
	// messages. Parked, a PE wakes (and yields) only when something was
	// written into its heap, so total yields are bounded by a small
	// multiple of the buffers transferred - each costs its receiver up
	// to three writes (payload, length, signal) and its sender one ack.
	// A silent fall-back to spinning fails this by orders of magnitude.
	g, err := graph.GenerateRMAT(graph.Graph500(10, 16, 42))
	if err != nil {
		t.Fatal(err)
	}
	set, waits := skewedTriangleRun(t, g, trace.Config{Logical: true, Physical: true})
	buffers := set.PhysicalMatrixOf(conveyor.LocalSend).Total() +
		set.PhysicalMatrixOf(conveyor.NonblockSend).Total()
	var total shmem.ProgressStats
	for _, w := range waits {
		total.Sleeps += w.Sleeps
		total.Wakes += w.Wakes
		total.EmptyWakes += w.EmptyWakes
		total.Yields += w.Yields
	}
	sends := set.LogicalMatrix().SendTotals()
	var hottest int64
	for _, n := range sends {
		hottest = max(hottest, n)
	}
	spinning := int64(len(sends)) * hottest
	t.Logf("buffers %d, hottest PE %d msgs, waits %+v (spin-yield would be ~%d yields)",
		buffers, hottest, total, spinning)
	if total.Sleeps == 0 || total.Wakes != total.Sleeps {
		t.Errorf("waits %+v: want PEs to have slept and every sleep to have been woken", total)
	}
	if limit := 8 * buffers; total.Yields > limit {
		t.Errorf("%d yields for %d buffers transferred (limit %d): the PEs are spinning, not parked",
			total.Yields, buffers, limit)
	}
	if total.EmptyWakes > total.Wakes {
		t.Errorf("waits %+v: more empty wakes than wakes", total)
	}
}

func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	// Same seed => same simulated run, whatever the host scheduler does:
	// parking changes when goroutines run, never what the model charges.
	// Trianglecount and the histogram at 64 PEs x 16 per node, twice each
	// under GOMAXPROCS 1 and 4, must agree on the logical matrix, the
	// send/recv totals and TOT_INS, and trianglecount on the overall
	// makespan too.
	//
	// The makespan is exact only where the critical path ships whole
	// buffers. A done PE forwards whatever an Advance finds, so how many
	// partial buffers an intermediate hop ships - and each costs its
	// receiver an ack - depends on how deliveries interleave. The skewed
	// triangle graph's makespan is its hot PE's clock, a pure sender
	// (the benchmark's sim.makespan_drift is 0 for the same reason); the
	// uniform histogram has no such PE, so its makespan is compared on
	// one node, where nothing is forwarded. Histogram and isort dispatch
	// in batches whose lengths follow the host's interleaving; a run of
	// n is priced as n messages, so that does not reach the makespan.
	if testing.Short() {
		t.Skip("four 64-PE runs per case")
	}
	cfg := trace.Config{Logical: true, Overall: true, PAPIEvents: []papi.Event{papi.TOT_INS}}
	g, err := graph.GenerateRMAT(graph.Graph500(10, 16, 42))
	if err != nil {
		t.Fatal(err)
	}
	histogram := func(perNode int) func() *trace.Set {
		return func() *trace.Set {
			set, err := Run(Options{Machine: sim.Machine{NumPEs: 64, PEsPerNode: perNode}, Trace: cfg},
				func(rt *actor.Runtime) error {
					_, err := apps.Histogram(rt, apps.HistogramConfig{
						UpdatesPerPE: 2000, TableSizePerPE: 64, Seed: 11})
					return err
				})
			if err != nil {
				t.Fatal(err)
			}
			return set
		}
	}
	isort := func() *trace.Set {
		set, err := Run(Options{Machine: sim.Machine{NumPEs: 64, PEsPerNode: 64}, Trace: cfg},
			func(rt *actor.Runtime) error {
				_, err := apps.ISort(rt, apps.ISortConfig{KeysPerPE: 2000, BucketWidth: 1 << 10, Seed: 11})
				return err
			})
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	type fingerprint struct {
		Logical      trace.Matrix
		Sends, Recvs []int64
		TotIns       []int64
		Makespan     int64
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name     string
		makespan bool
		run      func() *trace.Set
	}{
		{"trianglecount 64x16", true, func() *trace.Set {
			set, _ := skewedTriangleRun(t, g, cfg)
			return set
		}},
		{"histogram 64x16", false, histogram(16)},
		{"histogram 64x64", true, histogram(64)},
		{"isort 64x64", true, isort},
	} {
		var first fingerprint
		for i, procs := range []int{1, 1, 4, 4} {
			runtime.GOMAXPROCS(procs)
			set := tc.run()
			lm := set.LogicalMatrix()
			fp := fingerprint{Logical: lm, Sends: lm.SendTotals(), Recvs: lm.RecvTotals(),
				TotIns: set.PAPITotalsPerPE(papi.TOT_INS)}
			for _, o := range set.OverallRecords() {
				fp.Makespan = max(fp.Makespan, o.TTotal)
			}
			if fp.Makespan == 0 || lm.Total() == 0 {
				t.Fatalf("%s: empty run (makespan %d, %d messages)", tc.name, fp.Makespan, lm.Total())
			}
			if !tc.makespan {
				fp.Makespan = 0
			}
			if i == 0 {
				first = fp
			} else if !reflect.DeepEqual(fp, first) {
				t.Errorf("%s: run %d (GOMAXPROCS %d) differs from the first: makespan %d vs %d, messages %d vs %d",
					tc.name, i, procs, fp.Makespan, first.Makespan, lm.Total(), first.Logical.Total())
			}
		}
	}
}
