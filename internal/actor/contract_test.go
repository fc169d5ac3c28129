package actor

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/trace"
)

// A handler runs inside the conveyor progress its peers wait on, so a
// call that waits for every PE must refuse to run in one (DESIGN.md §5).
// A nested Finish in a handler used to run and return, and a Barrier in
// one paired with a peer's reduction; both now fail the run, naming the
// call and the PE.
func TestCallsThatWaitFailInAHandler(t *testing.T) {
	for _, tc := range []struct {
		name, want string // want: the error's pattern
		batch      bool
		call       func(rt *Runtime)
	}{
		{"Finish in Process", `shmem: PE \d called Finish inside a message handler`, false, func(rt *Runtime) { rt.Finish(func() {}) }},
		{"Finish in ProcessBatch", `shmem: PE \d called Finish inside a message handler`, true, func(rt *Runtime) { rt.Finish(func() {}) }},
		{"Barrier in Process", `shmem: PE \d called Barrier inside a message handler`, false, func(rt *Runtime) { rt.PE().Barrier() }},
		{"Barrier in ProcessBatch", `shmem: PE \d called Barrier inside a message handler`, true, func(rt *Runtime) { rt.PE().Barrier() }},
		{"AllReduceInt64 in ProcessBatch", `shmem: PE \d called AllReduceInt64 inside a message handler`, true, func(rt *Runtime) {
			rt.PE().AllReduceInt64(shmem.OpSum, 1)
		}},
		{"WaitUntilInt64 in Process", `shmem: PE \d called WaitUntilInt64 inside a message handler`, false, func(rt *Runtime) {
			rt.PE().WaitUntilInt64(8, shmem.CmpEq, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const npes = 4
			var sums [npes]int64
			err := runDeadline(t, 30*time.Second, cfg(npes, 2), func(pe *shmem.PE) {
				rt := NewRuntime(pe, RuntimeOptions{})
				sel, _ := NewActor(rt, Int64Codec())
				me := pe.Rank()
				handle := func(v int64) {
					tc.call(rt)
					sums[me] += v
				}
				if tc.batch {
					sel.ProcessBatch(0, func(msgs []int64, _ []int) {
						for _, v := range msgs {
							handle(v)
						}
					})
				} else {
					sel.Process(0, func(v int64, _ int) { handle(v) })
				}
				rt.Finish(func() {
					sel.Start()
					for dst := 0; dst < npes; dst++ {
						sel.Send(0, 1, dst)
					}
					sel.Done(0)
				})
				rt.Close()
				pe.AllReduceInt64(shmem.OpSum, sums[me])
			})
			if err == nil || !regexp.MustCompile(tc.want).MatchString(err.Error()) {
				t.Fatalf("Run returned %v, want an error matching %q", err, tc.want)
			}
		})
	}
}

func TestStartOutsideAFinishFails(t *testing.T) {
	// Only a Finish waits for a selector's termination, so a selector
	// started outside one could never be awaited.
	err := runDeadline(t, 30*time.Second, cfg(2, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, _ := NewActor(rt, Int64Codec())
		sel.Process(0, func(int64, int) {})
		sel.Start()
	})
	want := `actor: PE \d called Start outside a Finish`
	if err == nil || !regexp.MustCompile(want).MatchString(err.Error()) {
		t.Fatalf("Run returned %v, want an error matching %q", err, want)
	}
}

func TestFinishOnOneNodeFails(t *testing.T) {
	// A measured Finish ends in a barrier: PEs that skip it return, and
	// the run fails naming both, instead of stranding the Finish there.
	c := cfg(4, 2)
	coll, err := trace.NewCollector(trace.Config{Overall: true}, c.Machine)
	if err != nil {
		t.Fatal(err)
	}
	err = runDeadline(t, 30*time.Second, c, func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{Collector: coll})
		if pe.Node() == 1 {
			rt.Finish(func() {})
		}
	})
	for _, want := range []string{"shmem: collective #1: ", "returned", "in Barrier"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Run returned %v, want an error naming %q", err, want)
		}
	}
}

func TestUnprofiledInAMeasuredFinishFails(t *testing.T) {
	// A measured Finish's breakdown has no way to leave fn's cycles out,
	// so Unprofiled refuses to run inside one instead of charging them
	// to MAIN.
	c := cfg(2, 2)
	coll, err := trace.NewCollector(trace.Config{Overall: true}, c.Machine)
	if err != nil {
		t.Fatal(err)
	}
	err = runDeadline(t, 30*time.Second, c, func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{Collector: coll})
		rt.Finish(func() {
			rt.Unprofiled(func() { rt.Work(papi.Work{Ins: 1000000}) })
		})
		rt.Close()
	})
	want := `actor: PE \d called Unprofiled inside a measured Finish; move the phase outside the Finish`
	if err == nil || !regexp.MustCompile(want).MatchString(err.Error()) {
		t.Fatalf("Run returned %v, want an error matching %q", err, want)
	}
}
