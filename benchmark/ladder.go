package main

import (
	"fmt"
	"sync/atomic"

	"actorprof/internal/actor"
	"actorprof/internal/conveyor"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// The layer ladder measures the modules a message crosses from outside,
// without editing them: it drives successively taller stacks
// (shmem, conveyor, actor, then the real application untraced and traced)
// with the workload's own traffic, and reads a layer's self time as its
// rung's wall-clock minus the rung below. Every rung replays the logical
// matrix the workload really produced. A uniform matrix of the same
// volume does not do: at 256 PEs it costs a tenth of the skewed one,
// because the cost is idle PEs polling while one hot PE drains.

// traffic is what one traced run of a workload yields for the replays.
type traffic struct {
	machine   sim.Machine
	itemBytes int
	logical   trace.Matrix // messages per (source, destination)
	msgs      int64
	// buffers per (hop source, hop destination), by transfer mechanism.
	localBufs, remoteBufs trace.Matrix
	// mean payload bytes of a local_send and a nonblock_send buffer.
	localBytes, remoteBytes int
	// barriers each PE called.
	barriersPerPE int
	// batch selects PullRun/ProcessBatch in place of Pull/Process.
	batch bool
}

// extractTraffic reads the replay inputs out of a run made with logical
// and physical tracing and an API profile.
func extractTraffic(set *trace.Set, prof *shmem.APIProfile, itemBytes int, batch bool) traffic {
	npes, perNode := set.Shape()
	t := traffic{
		machine:    sim.Machine{NumPEs: npes, PEsPerNode: perNode},
		itemBytes:  itemBytes,
		logical:    set.LogicalMatrix(),
		localBufs:  set.PhysicalMatrixOf(conveyor.LocalSend),
		remoteBufs: set.PhysicalMatrixOf(conveyor.NonblockSend),
		batch:      batch,
	}
	t.msgs = t.logical.Total()
	// A local_send is three copies (payload, length word, sequence word)
	// and a nonblock_send two puts (payload, length word); what remains
	// after the 8-byte words is payload.
	var localCalls, localBytes, remoteCalls, remoteBytes, barriers int64
	for pe := 0; pe < npes; pe++ {
		localCalls += prof.Count(pe, shmem.RoutineCopyLocal)
		localBytes += prof.Bytes(pe, shmem.RoutineCopyLocal)
		remoteCalls += prof.Count(pe, shmem.RoutinePutNBI)
		remoteBytes += prof.Bytes(pe, shmem.RoutinePutNBI)
		barriers += prof.Count(pe, shmem.RoutineBarrier)
	}
	if n := localCalls / 3; n > 0 {
		t.localBytes = int((localBytes - 16*n) / n)
	}
	if n := remoteCalls / 2; n > 0 {
		t.remoteBytes = int((remoteBytes - 8*n) / n)
	}
	t.barriersPerPE = int(barriers / int64(npes))
	return t
}

// roundRobin calls send(dst) once per message of a matrix row, cycling
// over the destinations that still have messages left: the row keeps its
// skew, and the order interleaves destinations the way an application's
// loop over its vertices or keys does.
func roundRobin(row []int64, send func(dst int)) {
	left := append([]int64(nil), row...)
	active := make([]int, 0, len(row))
	for d, n := range left {
		if n > 0 {
			active = append(active, d)
		}
	}
	for len(active) > 0 {
		w := 0
		for _, d := range active {
			send(d)
			left[d]--
			if left[d] > 0 {
				active[w] = d
				w++
			}
		}
		active = active[:w]
	}
}

// column returns column c of m.
func column(m trace.Matrix, c int) []int64 {
	out := make([]int64, len(m))
	for r := range m {
		out[r] = m[r][c]
	}
	return out
}

// conveyorStats is what the conveyor rung learns from Conveyor.Stats.
type conveyorStats struct {
	advances atomic.Int64
	pulled   atomic.Int64
}

// conveyorRung pushes the logical matrix through one conveyor per PE
// with a zero payload, advancing and pulling the way the actor runtime
// does: progress only when a push finds its buffer full, then the
// endgame loop.
func conveyorRung(t traffic, st *conveyorStats) error {
	var mismatch atomic.Int64
	err := shmem.Run(shmem.Config{Machine: t.machine}, func(pe *shmem.PE) {
		c, err := conveyor.New(pe, conveyor.Options{ItemBytes: t.itemBytes})
		if err != nil {
			panic(err)
		}
		me := pe.Rank()
		item := make([]byte, t.itemBytes)
		var pulled int64
		drain := func() {
			if t.batch {
				for {
					_, _, n := c.PullRun()
					if n == 0 {
						return
					}
					pulled += int64(n)
				}
			}
			for {
				if _, _, ok := c.Pull(); !ok {
					return
				}
				pulled++
			}
		}
		roundRobin(t.logical[me], func(dst int) {
			for !c.Push(item, dst) {
				c.Advance(false)
				drain()
			}
		})
		for c.Advance(true) {
			drain()
		}
		drain()
		var want int64
		for _, n := range column(t.logical, me) {
			want += n
		}
		if pulled != want {
			mismatch.Add(1)
		}
		st.advances.Add(c.Stats().Advances)
		st.pulled.Add(pulled)
		pe.Barrier()
	})
	if err == nil && mismatch.Load() != 0 {
		err = fmt.Errorf("conveyor rung: %d PEs pulled a different number of items than the matrix sends them", mismatch.Load())
	}
	return err
}

// actorStats is what the actor rung's counting handler sees.
type actorStats struct {
	msgs        atomic.Int64
	invocations atomic.Int64
}

// actorRung sends the logical matrix through one selector per PE, built
// on a runtime with no trace collector, into a handler that only counts.
func actorRung[T any](t traffic, codec actor.Codec[T], st *actorStats) error {
	var mismatch atomic.Int64
	err := shmem.Run(shmem.Config{Machine: t.machine}, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		sel, err := actor.NewSelector(rt, 1, codec)
		if err != nil {
			panic(err)
		}
		var msgs, invocations int64
		if t.batch {
			sel.ProcessBatch(0, func(batch []T, _ []int) {
				msgs += int64(len(batch))
				invocations++
			})
		} else {
			sel.Process(0, func(T, int) {
				msgs++
				invocations++
			})
		}
		me := pe.Rank()
		var zero T
		rt.Finish(func() {
			sel.Start()
			roundRobin(t.logical[me], func(dst int) { sel.Send(0, zero, dst) })
			sel.Done(0)
		})
		rt.Close()
		var want int64
		for _, n := range column(t.logical, me) {
			want += n
		}
		if msgs != want {
			mismatch.Add(1)
		}
		st.msgs.Add(msgs)
		st.invocations.Add(invocations)
		pe.Barrier()
	})
	if err == nil && mismatch.Load() != 0 {
		err = fmt.Errorf("actor rung: %d PEs handled a different number of messages than the matrix sends them", mismatch.Load())
	}
	return err
}

// microDrive times one OpenSHMEM primitive inside a world of the given
// size. When every PE takes part, each calls op `calls` times between two
// barriers, and the result is wall-clock nanoseconds per call: how long
// one PE waits for its call while all the others make theirs (for a
// yield, the time until the scheduler comes back round to it). With solo
// set, only rank 0 calls op while the others wait parked in the closing
// barrier, and the result is the uncontended cost of one call.
func microDrive(machine sim.Machine, calls int, solo bool, op func(pe *shmem.PE, word int)) (nsPerCall float64, err error) {
	var elapsed atomic.Int64
	err = shmem.Run(shmem.Config{Machine: machine}, func(pe *shmem.PE) {
		word := pe.Malloc(8)
		pe.Barrier()
		start := nowNS()
		if !solo || pe.Rank() == 0 {
			for i := 0; i < calls; i++ {
				op(pe, word)
			}
			if solo {
				elapsed.Store(nowNS() - start)
			}
		}
		pe.Barrier()
		if !solo && pe.Rank() == 0 {
			elapsed.Store(nowNS() - start)
		}
	})
	return float64(elapsed.Load()) / float64(calls), err
}
