// Command chaos is the soak driver for the deterministic chaos harness:
// it composes pseudo-random (app, machine, fault-plan) cells from one
// seed word, runs each exactly as the differential matrix does (the
// app's sequential oracle, then the what-if engine on the recorded
// schedule), and - on failure - writes a JSON artifact with every
// failing cell's replay spec and full plan.
//
// The nightly CI job runs it with a fresh seed; reproducing a red run
// locally needs only the seed from the log:
//
//	go run ./cmd/chaos -seed 0x1f2e3d -cells 50
//
// and any single cell replays via the spec in the artifact:
//
//	go test ./internal/apps -run TestChaosReplayCell -chaos.replay 'bfs/tiny-buffers/8x4/0x1234'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"actorprof/internal/apps"
	"actorprof/internal/fault/harness"
)

func main() {
	seed := flag.Uint64("seed", 1, "master seed; the whole soak batch is a pure function of it")
	cells := flag.Int("cells", 25, "number of random cells to run")
	artifact := flag.String("artifact", "", "write failures as JSON to this file (default: stdout only)")
	flag.Parse()
	if err := run(*seed, *cells, *artifact, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(seed uint64, cells int, artifact string, out io.Writer) error {
	fmt.Fprintf(out, "chaos soak: %d cells from seed %#x\n", cells, seed)
	logf := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	fails := harness.RunRandom(apps.ChaosApps(), harness.DefaultMachines(), seed, cells, logf)
	if len(fails) == 0 {
		fmt.Fprintf(out, "all %d cells passed\n", cells)
		return nil
	}
	blob, err := json.MarshalIndent(struct {
		Seed     uint64            `json:"seed"`
		Cells    int               `json:"cells"`
		Failures []harness.Failure `json:"failures"`
	}{seed, cells, fails}, "", "  ")
	if err != nil {
		return err
	}
	if artifact != "" {
		if err := os.WriteFile(artifact, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote failure artifact to %s\n", artifact)
	} else {
		fmt.Fprintf(out, "%s\n", blob)
	}
	return fmt.Errorf("chaos soak: %d of %d cells failed (replay specs above; seed %#x)",
		len(fails), cells, seed)
}
