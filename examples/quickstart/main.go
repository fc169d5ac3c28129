// Quickstart: the paper's Listing 1-2 program, end to end.
//
// Every PE allocates a local array, creates an actor, and sends N
// asynchronous increments to pseudo-random destinations; the message
// handler bumps the local array WITHOUT atomics, because the FA-BSP
// runtime executes each PE's handlers one at a time on the PE's own
// thread of control. ActorProf traces everything and the program
// finishes by printing the logical-trace heatmap and the overall
// MAIN/COMM/PROC breakdown.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"actorprof/internal/actor"
	"actorprof/internal/core"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

const (
	numPEs     = 8
	pesPerNode = 4
	nMessages  = 2000 // N in Listing 1
	tableSize  = 64
)

func main() {
	if err := run(nMessages, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(messages int, out io.Writer) error {
	set, err := core.Run(core.Options{
		Machine: sim.Machine{NumPEs: numPEs, PEsPerNode: pesPerNode},
		Trace:   core.FullTrace(),
	}, func(rt *actor.Runtime) error {
		pe := rt.PE()

		// Listing 1, line 2: each PE allocates a local array.
		larray := make([]int64, tableSize)

		// Listing 2: an actor whose handler increments larray. No
		// atomics on the increment - the runtime serializes handlers.
		myActor, err := actor.NewActor(rt, actor.Int64Codec())
		if err != nil {
			return err
		}
		myActor.Process(0, func(idx int64, senderRank int) {
			larray[idx]++
		})

		// Listing 1, lines 4-12: finish { start; N sends; done }.
		rt.Finish(func() {
			myActor.Start()
			rng := seed(pe.Rank())
			for i := 0; i < messages; i++ {
				dst, idx := draw(&rng, pe.NumPEs())
				myActor.Send(0, idx, dst) // asynchronous SEND
			}
			myActor.Done(0)
		})

		// Sanity: each cell must hold what a serial replay of every PE's
		// stream sends it, and the global mass the number of messages.
		want := make([]int64, tableSize)
		for src := 0; src < pe.NumPEs(); src++ {
			rng := seed(src)
			for i := 0; i < messages; i++ {
				if dst, idx := draw(&rng, pe.NumPEs()); dst == pe.Rank() {
					want[idx]++
				}
			}
		}
		var local int64
		for i, v := range larray {
			if v != want[i] {
				return fmt.Errorf("PE %d cell %d = %d, want %d", pe.Rank(), i, v, want[i])
			}
			local += v
		}
		total := pe.AllReduceInt64(shmem.OpSum, local)
		if total != int64(numPEs*messages) {
			return fmt.Errorf("histogram mass %d, expected %d", total, numPEs*messages)
		}
		if pe.Rank() == 0 {
			fmt.Fprintf(out, "histogram mass: %d (expected %d)\n\n", total, numPEs*messages)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// ActorProf reports.
	if err := core.LogicalHeatmap(set, "Quickstart: logical trace").RenderText(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return core.OverallStacked(set, true, "Quickstart: overall breakdown (relative)").RenderText(out)
}

// seed is PE rank's random stream before its first message.
func seed(rank int) uint64 { return uint64(rank)*0x9e3779b97f4a7c15 + 0xdeadbeef }

// draw advances a stream by one message and returns its destination PE
// and table cell.
func draw(rng *uint64, npes int) (dst int, idx int64) {
	*rng = *rng*6364136223846793005 + 1442695040888963407
	return int(*rng>>33) % npes, int64(*rng>>13) % tableSize
}
