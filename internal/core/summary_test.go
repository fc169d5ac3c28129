package core

import (
	"fmt"
	"reflect"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// onDisk projects a Summary onto what a trace directory records of it:
// Config keeps only the fields the meta file and the file names carry
// (a reader cannot know the collector's PAPIRecordEvery, Format or
// Aggregate). Everything else - matrices, totals, overall, segments,
// payload statistics, the unexported derived matrix - rides along in
// the copy, so reflect.DeepEqual on two projections compares all of it.
func onDisk(m *trace.Summary) trace.Summary {
	c := *m
	c.Config = trace.Config{
		Logical: c.Config.Logical, Physical: c.Config.Physical, Overall: c.Config.Overall,
		PAPIEvents: c.Config.PAPIEvents, LogicalSample: c.Config.LogicalSample,
	}
	return c
}

// foldByHand aggregates a set's record slices with no help from the
// package under test: the independent reference the four ways are held
// to, so they cannot all be wrong the same way.
func foldByHand(s *trace.Set) (logical trace.Matrix, physical map[conveyor.SendKind]trace.Matrix, papiTotals [][]int64) {
	logical = trace.NewMatrix(s.NumPEs)
	for _, recs := range s.Logical {
		for _, r := range recs {
			logical[r.SrcPE][r.DstPE] += int64(s.Config.LogicalSample)
		}
	}
	physical = map[conveyor.SendKind]trace.Matrix{}
	for _, recs := range s.Physical {
		for _, r := range recs {
			if physical[r.Kind] == nil {
				physical[r.Kind] = trace.NewMatrix(s.NumPEs)
			}
			physical[r.Kind][r.SrcPE][r.DstPE]++
		}
	}
	papiTotals = make([][]int64, len(s.Config.PAPIEvents))
	for ev := range papiTotals {
		papiTotals[ev] = make([]int64, s.NumPEs)
		for pe, recs := range s.PAPI {
			for _, r := range recs {
				papiTotals[ev][pe] += r.Counters[ev]
			}
		}
	}
	return logical, physical, papiTotals
}

// checkAccessors holds every aggregate accessor of a Set to the matching
// accessor of its Summary.
func checkAccessors(t *testing.T, label string, s *trace.Set) {
	t.Helper()
	m := s.Summary()
	check := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Set.%s differs from its Summary's:\n got %v\nwant %v", label, what, got, want)
		}
	}
	check("LogicalMatrix", s.LogicalMatrix(), m.LogicalMatrix())
	check("PhysicalMatrix", s.PhysicalMatrix(), m.PhysicalMatrix())
	movement := trace.NewMatrix(s.NumPEs)
	for _, kind := range []conveyor.SendKind{conveyor.LocalSend, conveyor.NonblockSend, conveyor.NonblockProgress} {
		check("PhysicalMatrixOf("+kind.String()+")", s.PhysicalMatrixOf(kind), m.PhysicalMatrixOf(kind))
		if kind == conveyor.NonblockProgress {
			continue
		}
		for i, row := range m.PhysicalMatrixOf(kind) {
			for j, v := range row {
				movement[i][j] += v
			}
		}
	}
	check("PhysicalMatrix (local_send + nonblock_send)", s.PhysicalMatrix(), movement)
	check("PhysicalKindCounts", s.PhysicalKindCounts(), m.PhysicalKindCounts())
	for _, ev := range append([]papi.Event{papi.BR_MSP}, s.Config.PAPIEvents...) {
		check("PAPITotalsPerPE("+ev.String()+")", s.PAPITotalsPerPE(ev), m.PAPITotalsPerPE(ev))
	}
	check("OverallRecords", s.OverallRecords(), m.OverallRecords())
}

// TestFourWaysToASummary is the differential oracle for "one aggregate
// view" (DESIGN.md §10): for every app, the Summary of a record-mode
// collector's Set, of an aggregate-mode collector's Set, of the Set read
// back from disk and of the streaming ReadSummary over the same
// directory are deeply equal, the derived data-movement matrix included,
// and every Set accessor answers what its Summary answers.
//
// Two runs of one app are not record-for-record reproducible (which
// buffers a finished PE flushes, which send a sampler picks and, for the
// retrying apps, how many messages there are depend on interleaving), so
// each run is compared with its own directory: the record-mode run
// writes one with WriteFiles, the aggregate-mode run streams its records
// into one while it folds them. A third run, aggregated and not
// streamed, takes the collector's sum-only PAPI path. Across runs only
// what is a function of the program is compared: for the three apps
// whose per-PE work is (TestAggregatePAPITotalsEqualSumOfRecords), the
// unsampled logical trace, and on one node the PAPI totals.
func TestFourWaysToASummary(t *testing.T) {
	reproducible := map[string]bool{"triangle": true, "histogram": true, "isort": true}
	machines := []sim.Machine{{NumPEs: 4, PEsPerNode: 4}, {NumPEs: 4, PEsPerNode: 2}}
	knobs := []struct{ sample, every int }{{1, 1}, {3, 8}}
	for _, app := range apps.ChaosApps() {
		for _, m := range machines {
			for _, k := range knobs {
				app, m, k := app, m, k
				name := fmt.Sprintf("%s/%dx%d/sample%d-every%d", app.Name, m.NumPEs/m.PEsPerNode, m.PEsPerNode, k.sample, k.every)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := FullTrace()
					cfg.LogicalSample, cfg.PAPIRecordEvery = k.sample, k.every
					run := func(cfg trace.Config, streamDir string) *trace.Set {
						t.Helper()
						set, err := Run(Options{Machine: m, Trace: cfg, BufferItems: app.BufferItems, StreamDir: streamDir},
							func(rt *actor.Runtime) error {
								_, err := app.Run(rt)
								return err
							})
						if err != nil {
							t.Fatal(err)
						}
						return set
					}
					// readBack holds both disk readers to the collector
					// that produced dir, and to the by-hand fold of the
					// records in it.
					readBack := func(label, dir string, collected *trace.Set) {
						t.Helper()
						want := onDisk(collected.Summary())
						set, err := trace.ReadSet(dir)
						if err != nil {
							t.Fatal(err)
						}
						if got := onDisk(set.Summary()); !reflect.DeepEqual(got, want) {
							t.Errorf("%s: ReadSet(dir).Summary() differs from the collector's:\n got %+v\nwant %+v", label, got, want)
						}
						sum, _, err := trace.ReadSummary(dir, trace.ReadOptions{})
						if err != nil {
							t.Fatal(err)
						}
						if got := onDisk(sum); !reflect.DeepEqual(got, want) {
							t.Errorf("%s: ReadSummary(dir) differs from the collector's:\n got %+v\nwant %+v", label, got, want)
						}
						logical, physical, papiTotals := foldByHand(set)
						if !reflect.DeepEqual(sum.Logical, logical) || !reflect.DeepEqual(sum.Physical, physical) ||
							!reflect.DeepEqual(sum.PAPITotals, papiTotals) {
							t.Errorf("%s: the Summary differs from a by-hand fold of the records on disk", label)
						}
						checkAccessors(t, label+" read back", set)
					}

					recorded := run(cfg, "")
					dir := t.TempDir()
					if err := recorded.WriteFiles(dir); err != nil {
						t.Fatal(err)
					}
					readBack("record mode", dir, recorded)
					checkAccessors(t, "record mode", recorded)

					cfg.Aggregate = true
					dir = t.TempDir()
					streamed := run(cfg, dir)
					readBack("aggregate mode, streamed", dir, streamed)
					checkAccessors(t, "aggregate mode, streamed", streamed)

					folded := run(cfg, "")
					checkAccessors(t, "aggregate mode", folded)
					if !reproducible[app.Name] {
						return
					}
					want := recorded.Summary()
					for _, other := range []*trace.Set{streamed, folded} {
						got := other.Summary()
						if k.sample == 1 && !(reflect.DeepEqual(got.Logical, want.Logical) && got.MsgBytes == want.MsgBytes) {
							t.Errorf("aggregate and record mode disagree on the logical trace:\n got %v %+v\nwant %v %+v",
								got.Logical, got.MsgBytes, want.Logical, want.MsgBytes)
						}
						if m.PEsPerNode == m.NumPEs && !reflect.DeepEqual(got.PAPITotals, want.PAPITotals) {
							t.Errorf("aggregate and record mode disagree on the PAPI totals:\n got %v\nwant %v", got.PAPITotals, want.PAPITotals)
						}
					}
				})
			}
		}
	}
}
