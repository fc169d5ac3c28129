// Command isort runs the ISx-style bucketed integer sort - the
// batched-dispatch showcase - with ActorProf attached: every PE draws
// uniform keys, exchanges per-bucket counts, redistributes all keys to
// their bucket owners through ProcessBatch handlers, and sorts locally.
// The distributed result is validated against the sequential reference
// (placement is deterministic, so every bucket must match exactly), a
// summary prints, and the trace files land in -out, ready for the
// actorprof visualizer or actorprofd.
//
// Run:
//
//	go run ./examples/isort -out results/isort
//
//	-keys N      keys per PE (default 20000)
//	-pes N       number of PEs (default 16)
//	-per-node N  PEs per node (default 16)
//	-width N     bucket width per PE (default 1<<16)
//	-seed N      key-generation seed (default 42)
//	-buf N       conveyor buffer items (default 64)
//	-out DIR     trace output directory (default actorprof_trace)
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "isort:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("isort", flag.ContinueOnError)
	var (
		keys    = fs.Int("keys", 20000, "keys per PE")
		pes     = fs.Int("pes", 16, "number of PEs")
		perNode = fs.Int("per-node", 16, "PEs per node")
		width   = fs.Int64("width", 1<<16, "bucket width per PE")
		seed    = fs.Uint64("seed", 42, "key-generation seed")
		buf     = fs.Int("buf", 64, "conveyor aggregation buffer (items)")
		outDir  = fs.String("out", "actorprof_trace", "trace output directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *buf < 1 {
		return fmt.Errorf("buf %d: a conveyor buffer holds at least one item", *buf)
	}

	machine := sim.Machine{NumPEs: *pes, PEsPerNode: *perNode}
	cfg := apps.ISortConfig{KeysPerPE: *keys, BucketWidth: *width, Seed: *seed}
	if err := cmp.Or(machine.Validate(), cfg.Validate(*pes)); err != nil {
		return err
	}
	fmt.Fprintf(out, "isort: %d keys/PE on %d PEs (%d node(s)), bucket width %d\n",
		*keys, *pes, machine.NumNodes(), *width)

	results := make([]apps.ISortResult, *pes)
	set, sched, err := core.RunCaptured(core.Options{
		Machine:     machine,
		Trace:       core.FullTrace(),
		BufferItems: *buf,
	}, func(rt *actor.Runtime) error {
		res, err := apps.ISort(rt, cfg)
		if err != nil {
			return err
		}
		results[rt.PE().Rank()] = res
		return nil
	})
	if err != nil {
		return err
	}

	// Validate every bucket exactly against the sequential reference.
	want := apps.ISortSerial(*pes, cfg)
	var sorted int64
	for pe, res := range results {
		if len(res.Keys) != len(want[pe]) {
			return fmt.Errorf("VALIDATION FAILED: PE %d bucket has %d keys, serial reference %d",
				pe, len(res.Keys), len(want[pe]))
		}
		for i, k := range res.Keys {
			if k != want[pe][i] {
				return fmt.Errorf("VALIDATION FAILED: PE %d key %d is %d, serial reference %d",
					pe, i, k, want[pe][i])
			}
		}
		sorted += res.Received
	}
	fmt.Fprintf(out, "sorted %d keys (validated against the sequential reference)\n", sorted)

	lm := set.LogicalMatrix()
	fmt.Fprintf(out, "logical trace: %d sends; per-PE send imbalance (max/mean) %.2fx\n",
		lm.Total(), trace.MaxOverMean(lm.SendTotals()))

	if err := set.WriteFiles(*outDir); err != nil {
		return err
	}
	if err := whatif.WriteScheduleFile(*outDir, sched); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace files written to %s (render with: actorprof %s)\n", *outDir, *outDir)
	return nil
}
