package core

import (
	"fmt"
	"strings"

	"actorprof/internal/papi"
	"actorprof/internal/trace"
	"actorprof/internal/viz"
)

// Feature is something a trace directory may or may not hold; every
// standard plot names the features it cannot be drawn without.
type Feature int

const (
	FeatureLogical   Feature = iota // PEi_send.csv records
	FeaturePhysical                 // physical.txt records
	FeatureOverall                  // overall.txt breakdown
	FeaturePAPI                     // PEi_PAPI.csv counters
	FeatureMultiNode                // more PEs than fit on one node
)

// In reports whether s has the feature.
func (f Feature) In(s trace.Source) bool {
	cfg := s.TraceConfig()
	switch f {
	case FeatureLogical:
		return cfg.Logical
	case FeaturePhysical:
		return cfg.Physical
	case FeatureOverall:
		return cfg.Overall
	case FeaturePAPI:
		return len(cfg.PAPIEvents) > 0
	case FeatureMultiNode:
		npes, perNode := s.Shape()
		return npes > perNode
	}
	return false
}

// PlotSpec is one entry of the standard plot catalog: what the actorprof
// CLI and the actorprofd daemon both need to know about a plot in order
// to offer, title and build it.
type PlotSpec struct {
	// Kind names the plot in actorprofd URLs ("logical-heatmap").
	Kind string
	// Flag is the visualizer flag that selects the plot (-l, -p, -violin,
	// -lp, -s), without the dash.
	Flag string
	// Title is the plot's title; for a UsesEvent plot it is a format
	// taking the PAPI event.
	Title string
	// Needs lists the features the trace must have, most basic first.
	Needs []Feature
	// UsesEvent marks the one plot that draws a caller-chosen PAPI event;
	// every other plot ignores the event passed to Title and Build.
	UsesEvent bool

	build func(s trace.Source, ev papi.Event, title string) viz.Plot
}

// Plots is the catalog, in the order the CLI renders it.
var Plots = []PlotSpec{
	{Kind: "logical-heatmap", Flag: "l", Title: "Logical Trace (pre-aggregation sends)",
		Needs: []Feature{FeatureLogical}, build: titled(LogicalHeatmap)},
	{Kind: "physical-heatmap", Flag: "p", Title: "Physical Trace (post-aggregation buffers)",
		Needs: []Feature{FeaturePhysical}, build: titled(PhysicalHeatmap)},
	{Kind: "logical-violin", Flag: "violin", Title: "Logical sends/recvs per PE (quartiles)",
		Needs: []Feature{FeatureLogical}, build: titled(LogicalViolin)},
	{Kind: "physical-violin", Flag: "violin", Title: "Physical buffers per PE (quartiles)",
		Needs: []Feature{FeaturePhysical}, build: titled(PhysicalViolin)},
	{Kind: "papi-bar", Flag: "lp", Title: "%s per PE (user regions)", UsesEvent: true,
		Needs: []Feature{FeaturePAPI},
		build: func(s trace.Source, ev papi.Event, title string) viz.Plot { return PAPIBar(s, ev, title) }},
	{Kind: "papi-grouped", Flag: "lp", Title: "All PAPI counters per PE (one run)",
		Needs: []Feature{FeaturePAPI}, build: titled(PAPIGroupedBar)},
	{Kind: "node-heatmap", Flag: "p", Title: "Node-level network hotspots",
		Needs: []Feature{FeaturePhysical, FeatureMultiNode}, build: titled(NodeHeatmap)},
	{Kind: "overall-absolute", Flag: "s", Title: "Overall breakdown (absolute cycles)",
		Needs: []Feature{FeatureOverall},
		build: func(s trace.Source, _ papi.Event, title string) viz.Plot { return OverallStacked(s, false, title) }},
	{Kind: "overall-relative", Flag: "s", Title: "Overall breakdown (relative)",
		Needs: []Feature{FeatureOverall},
		build: func(s trace.Source, _ papi.Event, title string) viz.Plot { return OverallStacked(s, true, title) }},
}

// titled adapts a (source, title) plot constructor to the catalog.
func titled[P viz.Plot](f func(trace.Source, string) P) func(trace.Source, papi.Event, string) viz.Plot {
	return func(s trace.Source, _ papi.Event, title string) viz.Plot { return f(s, title) }
}

// Missing returns the first feature the plot needs and s lacks.
func (p PlotSpec) Missing(s trace.Source) (Feature, bool) {
	for _, f := range p.Needs {
		if !f.In(s) {
			return f, true
		}
	}
	return 0, false
}

// TitleFor returns the plot's title when drawn for ev.
func (p PlotSpec) TitleFor(ev papi.Event) string {
	if p.UsesEvent {
		return fmt.Sprintf(p.Title, ev)
	}
	return p.Title
}

// SVGFile is the file name the CLI's -svg writes the plot under.
func (p PlotSpec) SVGFile() string { return strings.ReplaceAll(p.Kind, "-", "_") + ".svg" }

// Build constructs the plot from s under its catalog title.
func (p PlotSpec) Build(s trace.Source, ev papi.Event) viz.Plot {
	return p.build(s, ev, p.TitleFor(ev))
}
