// Package hclib_test checks HClib's finish/async contract as
// actor.Runtime provides it. The only task an HClib-Actor runtime asyncs
// is a selector's progress worker, so here Start is the async and
// Runtime.Finish the finish: a Finish returns only once every selector
// started within it has terminated, sweeping the PE's live selectors in
// Start order until then.
package hclib_test

import (
	"fmt"
	"regexp"
	"testing"
	"time"

	"actorprof/internal/actor"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

// run executes body on npes PEs, at most two per node, and fails the
// test if the run is still going after 30 s: a Finish that never returns
// would otherwise hang the suite.
func run(t *testing.T, npes int, body func(pe *shmem.PE)) error {
	t.Helper()
	c := shmem.Config{Machine: sim.Machine{NumPEs: npes, PEsPerNode: min(npes, 2)}}
	done := make(chan error, 1)
	go func() { done <- shmem.Run(c, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("shmem.Run still going after 30s: a Finish never returned")
		return nil
	}
}

// newActors creates n single-mailbox int64 selectors; every PE must
// create the same ones in the same order.
func newActors(rt *actor.Runtime, n int) []*actor.Selector[int64] {
	sels := make([]*actor.Selector[int64], n)
	for i := range sels {
		sel, err := actor.NewActor(rt, actor.Int64Codec())
		if err != nil {
			panic(err)
		}
		sels[i] = sel
	}
	return sels
}

// mustBeComplete panics unless every selector's mailbox has quiesced.
func mustBeComplete(pe *shmem.PE, sels ...*actor.Selector[int64]) {
	for i, sel := range sels {
		if !sel.MailboxComplete(0) {
			panic(fmt.Sprintf("PE %d: selector %d still live after its Finish returned", pe.Rank(), i))
		}
	}
}

func TestFinishDrainsTasks(t *testing.T) {
	// Ten selectors started in one Finish: it returns only after every
	// one of them has handled its messages and terminated.
	const npes, nsel = 4, 10
	ran := make([]int, npes)
	err := run(t, npes, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		sels := newActors(rt, nsel)
		me := pe.Rank()
		for _, sel := range sels {
			sel.Process(0, func(int64, int) { ran[me]++ })
		}
		rt.Finish(func() {
			for _, sel := range sels {
				sel.Start()
				sel.Send(0, 1, (me+1)%npes)
				sel.Done(0)
			}
		})
		mustBeComplete(pe, sels...)
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, n := range ran {
		if n != nsel {
			t.Errorf("PE %d ran %d handlers, want %d", pe, n, nsel)
		}
	}
}

func TestFinishWaitsForTransitiveTasks(t *testing.T) {
	// Selectors started by handlers that the Finish drain itself runs:
	// a's handler starts b, b's starts c. The drain must sweep a selector
	// appended during its own round, and wait for it.
	const npes = 4
	order := make([][]int, npes)
	err := run(t, npes, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		s := newActors(rt, 3)
		a, b, c := s[0], s[1], s[2]
		me := pe.Rank()
		next := (me + 1) % npes
		a.Process(0, func(int64, int) {
			order[me] = append(order[me], 1)
			b.Start()
			b.Send(0, 2, next)
			b.Done(0)
		})
		b.Process(0, func(int64, int) {
			order[me] = append(order[me], 2)
			c.Start()
			c.Send(0, 3, next)
			c.Done(0)
		})
		c.Process(0, func(int64, int) { order[me] = append(order[me], 3) })
		rt.Finish(func() {
			a.Start()
			a.Send(0, 1, next)
			a.Done(0)
		})
		mustBeComplete(pe, a, b, c)
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, got := range order {
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("PE %d handled %v, want [1 2 3]", pe, got)
		}
	}
}

func TestSelfReschedulingWorkerTerminates(t *testing.T) {
	// A selector whose end a handler decides: a token hops from PE to PE
	// on mailbox 0, and the PE that handles the last hop broadcasts stop
	// on mailbox 1, whose handler closes mailbox 0. The body returns at
	// once; the Finish must keep sweeping the selector exactly until then.
	// One-item buffers ship each hop as it is sent: no PE is done on
	// mailbox 0 to flush a partial one.
	const npes, hops = 4, 25
	last := hops % npes // the PE that handles hop `hops`
	steps := make([]int, npes)
	err := run(t, npes, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 1})
		sel, err := actor.NewSelector(rt, 2, actor.Int64Codec())
		if err != nil {
			panic(err)
		}
		me := pe.Rank()
		sel.Process(0, func(hop int64, _ int) {
			steps[me]++
			if hop < hops {
				sel.Send(0, hop+1, (me+1)%npes)
				return
			}
			for dst := 0; dst < npes; dst++ {
				sel.Send(1, 0, dst)
			}
			sel.Done(1)
		})
		sel.Process(1, func(int64, int) { sel.Done(0) })
		rt.Finish(func() {
			sel.Start()
			if me == 0 {
				sel.Send(0, 1, 1)
			}
			if me != last {
				sel.Done(1)
			}
		})
		if !sel.MailboxComplete(0) || !sel.MailboxComplete(1) {
			panic(fmt.Sprintf("PE %d: selector still live after its Finish returned", me))
		}
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range steps {
		total += n
	}
	if total != hops {
		t.Fatalf("token handled %d times (per PE %v), want %d", total, steps, hops)
	}
}

func TestTasksRunFIFO(t *testing.T) {
	// A drain round sweeps the live selectors in Start order. On one PE
	// with one-item buffers, each selector's self-send is delivered on
	// the same sweep of its own, so handlers run in the order the
	// selectors were started - here the reverse of their creation order.
	const nsel = 5
	var got []int
	err := run(t, 1, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 1})
		sels := newActors(rt, nsel)
		for i, sel := range sels {
			sel.Process(0, func(int64, int) {
				got = append(got, i)
				sel.Done(0)
			})
		}
		rt.Finish(func() {
			for i := nsel - 1; i >= 0; i-- {
				sels[i].Start()
				sels[i].Send(0, 0, 0)
			}
		})
		mustBeComplete(pe, sels...)
		rt.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nsel {
		t.Fatalf("handled %v, want %d messages", got, nsel)
	}
	for i, sel := range got {
		if sel != nsel-1-i {
			t.Fatalf("handlers ran for selectors %v, want Start order [4 3 2 1 0]", got)
		}
	}
}

func TestNestedFinish(t *testing.T) {
	// Three nested Finish scopes, each with its own selector live across
	// the ones inside it: each Finish waits for its own selector only,
	// sweeping the enclosing ones along, and returns before the enclosing
	// selectors are closed.
	const npes = 4
	events := make([][]string, npes)
	err := run(t, npes, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		s := newActors(rt, 3)
		me := pe.Rank()
		names := []string{"outer", "middle", "inner"}
		for i, sel := range s {
			sel.Process(0, func(int64, int) { events[me] = append(events[me], names[i]) })
		}
		var scope func(level int)
		scope = func(level int) {
			rt.Finish(func() {
				s[level].Start()
				s[level].Send(0, 1, (me+level+1)%npes)
				if level+1 < len(s) {
					scope(level + 1)
					if !s[level+1].MailboxComplete(0) {
						panic(fmt.Sprintf("PE %d: the %s Finish returned before its selector terminated", me, names[level+1]))
					}
					if s[level].MailboxComplete(0) {
						panic(fmt.Sprintf("PE %d: the %s selector terminated before it was closed", me, names[level]))
					}
				}
				s[level].Done(0)
			})
		}
		scope(0)
		mustBeComplete(pe, s...)
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, got := range events {
		if len(got) != 3 {
			t.Errorf("PE %d handled %v, want one message per scope", pe, got)
		}
	}
}

func TestAsyncOutsideFinishPanics(t *testing.T) {
	// Only a Finish waits for a selector, so Start outside one - here
	// after the Finish that started another selector has returned -
	// panics, naming the PE.
	var msg string
	err := run(t, 1, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		s := newActors(rt, 2)
		for _, sel := range s {
			sel.Process(0, func(int64, int) {})
		}
		rt.Finish(func() {
			s[0].Start()
			s[0].Done(0)
		})
		defer func() { msg = fmt.Sprint(recover()) }()
		s[1].Start()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `^actor: PE 0 called Start outside a Finish$`
	if !regexp.MustCompile(want).MatchString(msg) {
		t.Fatalf("Start outside a Finish panicked with %q, want a match for %q", msg, want)
	}
}

func TestRearmingWorkerDoesNotAllocate(t *testing.T) {
	// A live selector is swept again on every drain round for as long as
	// it lives, so a round must be allocation-free once the mailbox
	// scratch and the conveyor pools are warm. An empty nested Finish is
	// exactly one round: it has no selector of its own to wait for.
	const rounds = 1000
	handled := 0
	var allocs float64
	err := run(t, 1, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 1})
		sel := newActors(rt, 1)[0]
		sel.Process(0, func(int64, int) { handled++ })
		rt.Finish(func() {
			sel.Start()
			round := func() {
				sel.Send(0, 1, 0)
				rt.Finish(func() {})
			}
			round() // warms the pools and the mailbox scratch
			allocs = testing.AllocsPerRun(rounds, round)
			sel.Done(0)
		})
		rt.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a send plus one drain round allocated %.3f times per run, want 0", allocs)
	}
	if want := rounds + 2; handled != want {
		t.Errorf("handled %d messages, want %d", handled, want)
	}
}
