package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/graph"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// runTriangleTrace runs trianglecount under physical tracing and
// returns the assembled Set.
func runTriangleTrace(t *testing.T) *trace.Set {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.Graph500(7, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	set, err := Run(Options{
		Machine: sim.Machine{NumPEs: 4, PEsPerNode: 2},
		Trace:   trace.Config{Physical: true, Format: trace.FormatBinary},
	}, func(rt *actor.Runtime) error {
		_, err := apps.TriangleCount(rt, g, graph.NewCyclicDist(rt.PE().NumPEs()))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// compareWindowResults holds an indexed query to the brute-force
// reference: everything but the provenance fields must match exactly.
func compareWindowResults(t *testing.T, label string, got, want *trace.WindowResult) {
	t.Helper()
	if got.Domain != want.Domain || got.LOD != want.LOD || got.BucketWidth != want.BucketWidth ||
		got.TMin != want.TMin || got.TMax != want.TMax || got.Truncated != want.Truncated {
		t.Fatalf("%s: metadata differs:\ngot  %+v\nwant %+v", label, got, want)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: events differ (%d vs %d)", label, len(got.Events), len(want.Events))
	}
	if !reflect.DeepEqual(got.Buckets, want.Buckets) {
		t.Fatalf("%s: buckets differ (%d vs %d)", label, len(got.Buckets), len(want.Buckets))
	}
}

// TestWindowQueryAllApps is the all-apps leg of the differential suite:
// every chaos app runs under physical tracing, is written in binary form
// and indexed (BuildTimeIndex writes the sidecar), and randomized window
// queries through the index must match the brute-force reference over
// the reloaded Set exactly - real traffic shapes, not synthetic ones.
func TestWindowQueryAllApps(t *testing.T) {
	for _, app := range apps.ChaosApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			set, err := Run(Options{
				Machine:     sim.Machine{NumPEs: 4, PEsPerNode: 2},
				Trace:       trace.Config{Physical: true, Format: trace.FormatBinary},
				BufferItems: app.BufferItems,
			}, func(rt *actor.Runtime) error {
				_, err := app.Run(rt)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := set.WriteFiles(dir); err != nil {
				t.Fatal(err)
			}
			if built, err := trace.BuildTimeIndex(dir); err != nil || !built {
				t.Fatalf("BuildTimeIndex: built=%v err=%v", built, err)
			}
			ix, err := trace.LoadTimeIndex(dir)
			if err != nil {
				t.Fatalf("no time index after BuildTimeIndex: %v", err)
			}
			ref, err := trace.ReadSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(app.Name))))
			span := ix.TMax - ix.TMin + 1
			for trial := 0; trial < 40; trial++ {
				t0 := ix.TMin - 3 + rng.Int63n(span+6)
				q := trace.Window{
					T0:  t0,
					T1:  t0 + rng.Int63n(span/2+4),
					LOD: rng.Intn(5),
				}
				got, err := ix.Query(dir, q)
				if err != nil {
					t.Fatal(err)
				}
				compareWindowResults(t, app.Name, got, trace.QueryWindowSet(ref, q))
			}
			// Full span at both detail extremes.
			for _, q := range []trace.Window{
				{T0: ix.TMin, T1: ix.TMax + 1},
				{T0: ix.TMin, T1: ix.TMax + 1, LOD: 3},
			} {
				got, err := ix.Query(dir, q)
				if err != nil {
					t.Fatal(err)
				}
				compareWindowResults(t, app.Name, got, trace.QueryWindowSet(ref, q))
			}
		})
	}
}

// TestTrianglecountPerfettoExport runs the paper's flagship app under
// physical tracing and validates the full-model Perfetto export
// structurally (live runs are schedule-dependent, so the byte-for-byte
// golden lives over a fixed Set in internal/trace; this test covers a
// real trace's shape instead): a JSON object whose every event carries
// the required fields, opening with the clock_domain declaration.
func TestTrianglecountPerfettoExport(t *testing.T) {
	set := runTriangleTrace(t)
	var buf strings.Builder
	if err := set.ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	if doc.TraceEvents[0]["name"] != "clock_domain" {
		t.Fatal("stream does not open with the clock_domain metadata event")
	}
	if _, ok := doc.OtherData["clock_domain"].(string); !ok {
		t.Fatal("otherData is missing the clock_domain")
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event missing name or phase: %v", e)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event %q has no numeric pid", name)
		}
		switch ph {
		case "M":
		case "i", "B", "E", "C", "X":
			if _, ok := e["ts"].(float64); !ok {
				t.Fatalf("%s event %q has no numeric ts", ph, name)
			}
		default:
			t.Fatalf("event %q has unknown phase %q", name, ph)
		}
		phases[ph]++
	}
	if phases["B"] == 0 || phases["B"] != phases["E"] {
		t.Fatalf("unbalanced durations: %d B vs %d E", phases["B"], phases["E"])
	}
	if phases["C"] == 0 {
		t.Fatal("no backlog counters in a conveyor trace")
	}
}
