package actor

import (
	"reflect"
	"testing"
	"time"

	"actorprof/internal/fault"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// observation is everything a run lets an observer see of its dispatch:
// counts, counters, clocks, the overall breakdown and the recorded
// schedule.
type observation struct {
	Recv    [][2]int64
	PAPI    [][papi.NumEvents]int64
	Clocks  []int64
	Overall []trace.OverallRecord
	Events  [][]sim.Event
}

// observeLockstep runs seeded request/reply traffic on 4 PEs over 2
// nodes with the handlers registered through install, and returns what
// the run showed. The PEs take turns - one sends a little and makes one
// round of progress while the others wait for the baton - so which
// buffers a sweep finds, and with them the run lengths, are a function
// of the program alone and two runs can be compared event for event.
func observeLockstep(t *testing.T, bufItems int, inj fault.Injector,
	install func(sel *Selector[int64], onRequest, onReply func(int64, int))) observation {
	t.Helper()
	const npes, perNode, rounds, perRound, settle = 4, 2, 40, 2, 10
	machine := sim.Machine{NumPEs: npes, PEsPerNode: perNode}
	cost := sim.DefaultCostModel()
	coll, err := trace.NewCollector(trace.Config{Overall: true}, machine)
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.NewScheduleRecorder(machine, cost)
	turn := make([]chan struct{}, npes)
	for i := range turn {
		turn[i] = make(chan struct{}, 1)
	}
	turn[0] <- struct{}{}
	obs := observation{
		Recv:   make([][2]int64, npes),
		PAPI:   make([][papi.NumEvents]int64, npes),
		Clocks: make([]int64, npes),
	}
	err = runDeadline(t, 60*time.Second, shmem.Config{Machine: machine, Cost: cost, Fault: inj, Schedule: rec},
		func(pe *shmem.PE) {
			rt := NewRuntime(pe, RuntimeOptions{Collector: coll, BufferItems: bufItems})
			sel, err := NewSelector(rt, 2, Int64Codec())
			if err != nil {
				panic(err)
			}
			me := pe.Rank()
			install(sel,
				func(v int64, src int) {
					if v%3 == 0 {
						sel.Send(1, v, src)
					}
				},
				func(int64, int) {})
			step := func(f func()) {
				<-turn[me]
				f()
				turn[(me+1)%npes] <- struct{}{}
			}
			rt.Finish(func() {
				sel.Start()
				rng := uint64(me*977 + 13)
				for r := 0; r < rounds; r++ {
					step(func() {
						for i := 0; i < perRound; i++ {
							rng = rng*6364136223846793005 + 1442695040888963407
							sel.Send(0, int64(rng>>40), int(rng>>33)%npes)
						}
						sel.Progress()
					})
				}
				for mb := 0; mb < 2; mb++ {
					step(func() { sel.Done(mb) })
					for r := 0; r < settle; r++ {
						step(sel.Progress)
					}
					if !sel.MailboxComplete(mb) {
						panic("mailbox still live after the settling rounds")
					}
				}
			})
			obs.Recv[me] = [2]int64{sel.RecvCount(0), sel.RecvCount(1)}
			for ev := range obs.PAPI[me] {
				obs.PAPI[me][ev] = rt.Engine().Read(papi.Event(ev))
			}
			obs.Clocks[me] = pe.Clock().Now()
			rt.Close()
			pe.Barrier()
		})
	if err != nil {
		t.Fatal(err)
	}
	obs.Overall = coll.Set().OverallRecords()
	for _, l := range rec.Schedule().PEs {
		obs.Events = append(obs.Events, l.Events)
	}
	return obs
}

// TestRegistrationFormIsUnobservable: Process is ProcessBatch with the
// loop written by the runtime, and nothing a run counts, charges or
// records may tell the two apart - with small and default buffers, and
// on PEs whose every charge is inflated by a skew that does not divide
// a dispatch's price.
func TestRegistrationFormIsUnobservable(t *testing.T) {
	slow := &fault.Plan{Name: "slow-pes", Seed: 5, SkewProb: 0.75, SkewMaxPercent: 37}
	var skewed int
	for pe := 0; pe < 4; pe++ {
		if slow.ClockSkewPercent(pe) > 0 {
			skewed++
		}
	}
	if skewed == 0 {
		t.Fatal("the skew plan slows no PE; pick another seed")
	}
	perMessage := func(sel *Selector[int64], onRequest, onReply func(int64, int)) {
		sel.Process(0, onRequest)
		sel.Process(1, onReply)
	}
	perRun := func(sel *Selector[int64], onRequest, onReply func(int64, int)) {
		for mb, fn := range []func(int64, int){onRequest, onReply} {
			sel.ProcessBatch(mb, func(msgs []int64, srcPEs []int) {
				for i, msg := range msgs {
					fn(msg, srcPEs[i])
				}
			})
		}
	}
	for _, tc := range []struct {
		name     string
		bufItems int
		inj      fault.Injector
	}{
		{"buffer 4", 4, nil},
		{"default buffer", 0, nil},
		{"buffer 4, slow PEs", 4, slow},
		{"default buffer, slow PEs", 0, slow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := observeLockstep(t, tc.bufItems, tc.inj, perMessage)
			b := observeLockstep(t, tc.bufItems, tc.inj, perRun)
			var msgs, runs int64
			for pe, evs := range a.Events {
				msgs += a.Recv[pe][0] + a.Recv[pe][1]
				for _, ev := range evs {
					if ev.Kind == sim.EvHandlerStart {
						runs++
					}
				}
			}
			if msgs == 0 || runs == 0 || runs >= msgs {
				t.Fatalf("%d handler brackets for %d messages: the traffic never formed a run", runs, msgs)
			}
			if !reflect.DeepEqual(a.Recv, b.Recv) {
				t.Errorf("RecvCount: Process %v, ProcessBatch %v", a.Recv, b.Recv)
			}
			if !reflect.DeepEqual(a.PAPI, b.PAPI) {
				t.Errorf("PAPI totals: Process %v, ProcessBatch %v", a.PAPI, b.PAPI)
			}
			if !reflect.DeepEqual(a.Clocks, b.Clocks) {
				t.Errorf("final clocks: Process %v, ProcessBatch %v", a.Clocks, b.Clocks)
			}
			if !reflect.DeepEqual(a.Overall, b.Overall) {
				t.Errorf("overall records: Process %+v, ProcessBatch %+v", a.Overall, b.Overall)
			}
			for pe := range a.Events {
				if !reflect.DeepEqual(a.Events[pe], b.Events[pe]) {
					t.Errorf("PE %d recorded %d schedule events under Process, %d under ProcessBatch, or they differ",
						pe, len(a.Events[pe]), len(b.Events[pe]))
				}
			}
		})
	}
}
