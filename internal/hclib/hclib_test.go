package hclib

import "testing"

func TestFinishDrainsTasks(t *testing.T) {
	c := New()
	ran := 0
	c.Finish(func() {
		for i := 0; i < 10; i++ {
			c.Async(func() { ran++ })
		}
	})
	if ran != 10 {
		t.Fatalf("ran = %d, want 10", ran)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after finish", c.Pending())
	}
}

func TestFinishWaitsForTransitiveTasks(t *testing.T) {
	c := New()
	var order []int
	c.Finish(func() {
		c.Async(func() {
			order = append(order, 1)
			c.Async(func() {
				order = append(order, 2)
				c.Async(func() { order = append(order, 3) })
			})
		})
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSelfReschedulingWorkerTerminates(t *testing.T) {
	// The selector progress loop pattern: a task that re-enqueues itself
	// until a condition holds must keep its finish scope open exactly
	// that long.
	c := New()
	steps := 0
	var worker func()
	worker = func() {
		steps++
		if steps < 25 {
			c.Async(worker)
		}
	}
	c.Finish(func() { c.Async(worker) })
	if steps != 25 {
		t.Fatalf("worker ran %d times, want 25", steps)
	}
}

func TestTasksRunFIFO(t *testing.T) {
	c := New()
	var got []int
	c.Finish(func() {
		for i := 0; i < 5; i++ {
			i := i
			c.Async(func() { got = append(got, i) })
		}
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want FIFO order", got)
		}
	}
}

func TestNestedFinish(t *testing.T) {
	c := New()
	var events []string
	c.Finish(func() {
		c.Async(func() { events = append(events, "outer") })
		c.Finish(func() {
			c.Async(func() { events = append(events, "inner") })
		})
		// The inner finish must have completed its own task before
		// returning; "inner" must already be present.
		found := false
		for _, e := range events {
			if e == "inner" {
				found = true
			}
		}
		if !found {
			t.Error("inner finish returned before its task ran")
		}
	})
	if len(events) != 2 {
		t.Fatalf("events = %v, want 2 entries", events)
	}
}

func TestAsyncOutsideFinishPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Async outside Finish should panic")
		}
	}()
	New().Async(func() {})
}

func TestYield(t *testing.T) {
	c := New()
	ran := false
	c.Finish(func() {
		c.Async(func() { ran = true })
		if !c.Yield() {
			t.Error("Yield should have run a task")
		}
		if !ran {
			t.Error("task did not run during Yield")
		}
	})
	if c.Yield() {
		t.Error("Yield with empty queue should return false")
	}
}

func TestExecutedCounter(t *testing.T) {
	c := New()
	c.Finish(func() {
		for i := 0; i < 7; i++ {
			c.Async(func() {})
		}
	})
	if c.Executed() != 7 {
		t.Fatalf("Executed = %d, want 7", c.Executed())
	}
}

func TestQueueStaysFIFOAcrossGrowthAndWrap(t *testing.T) {
	// Interleave pushes and pops so the ring's head moves, wraps, and
	// the ring grows while wrapped: order must stay first-in first-out.
	ctx := New()
	var got []int
	next := 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			id := next
			next++
			ctx.Async(func() { got = append(got, id) })
		}
	}
	ctx.Finish(func() {
		push(5)
		for i := 0; i < 3; i++ {
			ctx.Yield()
		}
		push(6) // 8 queued in an 8-slot ring whose head is at 3: wrapped
		ctx.Yield()
		push(20) // grows while wrapped
		for i := 0; i < 10; i++ {
			ctx.Yield()
		}
		push(40)
	})
	if len(got) != next {
		t.Fatalf("ran %d tasks, queued %d", len(got), next)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("task order %v: position %d ran task %d", got, i, id)
		}
	}
	if ctx.Pending() != 0 {
		t.Errorf("%d tasks pending after Finish", ctx.Pending())
	}
}

func TestRearmingWorkerDoesNotAllocate(t *testing.T) {
	// The selector progress worker re-arms itself on every poll; one
	// Async plus one runOne must be O(1) and allocation-free once the
	// ring has its steady-state size.
	ctx := New()
	polls := 0
	var worker func()
	worker = func() {
		polls++
		if polls%1000 != 0 {
			ctx.Async(worker)
		}
	}
	cycle := func() {
		ctx.Finish(func() { ctx.Async(worker) })
	}
	cycle() // sizes the ring; Finish's own scope is the only allocation left
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs > 1 {
		t.Errorf("1000 worker re-arms allocated %.1f times (want at most the finish scope)", allocs)
	}
	if polls != 12*1000 {
		t.Errorf("worker polled %d times, want %d", polls, 12*1000)
	}
}

func TestSoleDrainTask(t *testing.T) {
	ctx := New()
	var fromDrainAlone, fromDrainWithOthers, fromYield, fromWait, nestedDrain, afterNested bool
	ctx.Finish(func() {
		// Reached through Yield: the caller has work to return to.
		ctx.Async(func() { fromYield = ctx.SoleDrainTask() })
		ctx.Yield()
		// Reached through Promise.Wait: likewise.
		p := AsyncFuture(ctx, func() int { fromWait = ctx.SoleDrainTask(); return 1 })
		p.Wait()
		// Drained with another task queued behind it, then drained alone.
		ctx.Async(func() { fromDrainWithOthers = ctx.SoleDrainTask() })
		ctx.Async(func() {
			fromDrainAlone = ctx.SoleDrainTask()
			// A task that yields to a task that opens its own Finish:
			// inside that inner drain loop the bit is set again, and it
			// is restored on the way out.
			ctx.Async(func() {
				ctx.Finish(func() {
					ctx.Async(func() { nestedDrain = ctx.SoleDrainTask() })
				})
				afterNested = ctx.SoleDrainTask()
			})
			ctx.Yield()
		})
	})
	if fromYield || fromWait {
		t.Errorf("task reached through Yield (%v) or Wait (%v) reported SoleDrainTask", fromYield, fromWait)
	}
	if fromDrainWithOthers {
		t.Error("drained task with another task queued reported SoleDrainTask")
	}
	if !fromDrainAlone {
		t.Error("the only task of a Finish drain loop did not report SoleDrainTask")
	}
	if !nestedDrain {
		t.Error("the only task of a nested Finish drain loop did not report SoleDrainTask")
	}
	if afterNested {
		t.Error("a yielded-to task reported SoleDrainTask after its nested Finish returned")
	}
}
