package apps_test

import (
	"reflect"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/graph"
	"actorprof/internal/sim"
)

// An aggregate-only collector reads the PAPI counters once, at Close,
// instead of once per record: the per-PE totals it reports must be, bit
// for bit, the sum of the Counters of every record the same run retains
// under FullTrace (back-to-back stop/start deltas add up to one delta).
// One node, so the work each PE does - and with it every total - is
// independent of scheduling.
func TestAggregatePAPITotalsEqualSumOfRecords(t *testing.T) {
	m := sim.Machine{NumPEs: 8, PEsPerNode: 8}
	g, err := graph.GenerateRMAT(graph.Graph500(8, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		app  func(rt *actor.Runtime) error
	}{
		{"trianglecount", func(rt *actor.Runtime) error {
			_, err := apps.TriangleCount(rt, g, graph.NewCyclicDist(m.NumPEs))
			return err
		}},
		{"isort", func(rt *actor.Runtime) error {
			_, err := apps.ISort(rt, apps.ISortConfig{KeysPerPE: 400, BucketWidth: 64, Seed: 19})
			return err
		}},
		{"histogram", func(rt *actor.Runtime) error {
			_, err := apps.Histogram(rt, apps.HistogramConfig{UpdatesPerPE: 300, TableSizePerPE: 32, Seed: 11})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := core.Run(core.Options{Machine: m, Trace: core.FullTrace()}, tc.app)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]int64, len(full.Config.PAPIEvents))
			for ev := range want {
				want[ev] = make([]int64, m.NumPEs)
			}
			records := 0
			for pe, recs := range full.PAPI {
				records += len(recs)
				for _, r := range recs {
					for ev, v := range r.Counters {
						want[ev][pe] += v
					}
				}
			}
			if records == 0 {
				t.Fatal("the FullTrace run retained no PAPI record")
			}

			// The benchmark's aggregation config batches records as well;
			// neither knob may show in the totals.
			for _, every := range []int{1, 256} {
				cfg := core.FullTrace()
				cfg.Aggregate, cfg.PAPIRecordEvery = true, every
				agg, err := core.Run(core.Options{Machine: m, Trace: cfg}, tc.app)
				if err != nil {
					t.Fatal(err)
				}
				if got := agg.Summary().PAPITotals; !reflect.DeepEqual(got, want) {
					t.Errorf("PAPIRecordEvery %d: aggregate totals %v, sum of FullTrace records %v", every, got, want)
				}
			}
		})
	}
}
