package actor

import (
	"fmt"

	"actorprof/internal/conveyor"
	"actorprof/internal/fault"
	"actorprof/internal/papi"
	"actorprof/internal/sim"
)

// Selector is an actor with multiple guarded mailboxes (Imam & Sarkar's
// selector model, as adopted by HClib-Actor). Each mailbox carries
// messages of type T and has its own handler (Process or ProcessBatch)
// and its own Conveyors instance underneath. A Selector with one mailbox
// is a plain actor.
//
// Lifecycle (paper Listing 1):
//
//	sel := actor.NewSelector(rt, 1, actor.Int64Codec())
//	sel.Process(0, func(msg int64, srcPE int) { ... })
//	rt.Finish(func() {
//		sel.Start()
//		for ... { sel.Send(0, msg, dst) }
//		sel.Done(0)
//	})
//
// All methods must be called from the owning PE's goroutine. Handlers run
// interleaved with the sender's code on the same goroutine, one at a
// time, so handler bodies need no synchronization.
type Selector[T any] struct {
	rt    *Runtime
	codec Codec[T]
	// ord is the selector's creation ordinal on this PE; identical on
	// every PE because selector creation is collective. It keys the
	// actor IDs (sim.ActorID) carried by handler schedule markers.
	ord int

	mailboxes []mailbox[T]
	convs     []*conveyor.Conveyor

	started  bool
	finished bool
	// sendCount / recvCount per mailbox, for tests and load statistics.
	sendCount []int64
	recvCount []int64
	// inProgress guards against re-entrant progress from handler sends.
	inProgress bool

	// The per-message cost-model work depends only on the (fixed) codec
	// size, so it is computed once here instead of on every Send/drain:
	// the lookup plus the integer division inside InstructionCost were
	// ~25% of the un-traced messaging hot path.
	sendWork    papi.Work // one Send's MAIN-segment work
	sendCyc     int64     // InstructionCost(sendWork.Ins)
	handlerWork papi.Work // one message's dispatch work
	handlerCyc  int64     // InstructionCost(handlerWork.Ins)
}

type mailbox[T any] struct {
	// handler receives each delivered pull-ring run as one invocation
	// over the scratch slices below (see Selector.ProcessBatch).
	handler func(msgs []T, srcPEs []int)
	done    bool
	// draining guards the scratch against re-entrant drains of the same
	// mailbox: a handler's Send may hit a full buffer, whose retry loop
	// drains this mailbox again while msgs/srcs are live.
	draining bool
	// msgs/srcs are the recycled scratch: decoded messages and source
	// PEs for the current invocation. They grow to the pull ring's
	// high-water run length and are then reused, so steady-state
	// dispatch allocates nothing.
	msgs []T
	srcs []int
}

// NewSelector creates a selector with n mailboxes carrying T. It is a
// collective call: every PE must create its selectors in the same order
// with the same parameters (the conveyor construction underneath
// allocates symmetric memory).
func NewSelector[T any](rt *Runtime, n int, codec Codec[T]) (*Selector[T], error) {
	if n <= 0 || n > sim.MaxMailboxes {
		return nil, fmt.Errorf("actor: selector needs 1 to %d mailboxes, got %d", sim.MaxMailboxes, n)
	}
	if codec.Size <= 0 || codec.Encode == nil || codec.Decode == nil {
		return nil, fmt.Errorf("actor: incomplete codec")
	}
	s := &Selector[T]{
		rt:        rt,
		ord:       rt.nextSelectorOrdinal(),
		codec:     codec,
		mailboxes: make([]mailbox[T], n),
		convs:     make([]*conveyor.Conveyor, n),
		sendCount: make([]int64, n),
		recvCount: make([]int64, n),
	}
	s.sendWork = rt.costs.SendWork(codec.Size)
	s.sendCyc = rt.instrCost(s.sendWork.Ins)
	s.handlerWork = rt.costs.HandlerWork(codec.Size)
	s.handlerCyc = rt.instrCost(s.handlerWork.Ins)
	for mb := 0; mb < n; mb++ {
		opts := conveyor.Options{
			ItemBytes:   codec.Size,
			BufferItems: rt.opts.BufferItems,
			Topology:    rt.opts.Topology,
		}
		if rt.pc != nil {
			pc := rt.pc
			opts.OnPhysical = func(kind conveyor.SendKind, bufBytes, src, dst int) {
				if !rt.paused {
					pc.PhysicalSendAt(kind, bufBytes, src, dst, rt.pe.Clock().Now())
				}
			}
		}
		c, err := conveyor.New(rt.pe, opts)
		if err != nil {
			return nil, fmt.Errorf("actor: creating mailbox %d conveyor: %w", mb, err)
		}
		s.convs[mb] = c
	}
	return s, nil
}

// NewActor creates a single-mailbox selector (a plain actor).
func NewActor[T any](rt *Runtime, codec Codec[T]) (*Selector[T], error) {
	return NewSelector(rt, 1, codec)
}

// Process installs the handler for mailbox mb (Listing 1's process
// callback): fn runs once per delivered message, in delivery order. It
// is ProcessBatch with the loop over the run written for you; nothing
// the runtime records or charges depends on which of the two was used.
func (s *Selector[T]) Process(mb int, fn func(msg T, srcPE int)) {
	s.ProcessBatch(mb, func(msgs []T, srcPEs []int) {
		for i, msg := range msgs {
			fn(msg, srcPEs[i])
		}
	})
}

// ProcessBatch installs a data-parallel handler for mailbox mb: the
// runtime decodes each delivered pull-ring run into recycled scratch and
// hands the whole run to fn as ONE invocation — msgs holds the decoded
// messages in delivery order and srcPEs the matching source ranks
// (len(msgs) == len(srcPEs) >= 1).
//
// Ownership (DESIGN.md §15): both slices are borrowed scratch, valid
// only during the invocation. The runtime reuses them for the next
// run, so a handler must copy any element or subslice it retains past
// its return. Sending from inside the handler is allowed; a Send that
// has to wait for buffer space runs other mailboxes' handlers but never
// re-enters this one.
//
// Accounting is per message: RecvCount, the PAPI tally, the cost-model
// instruction charge, and the logical trace all account n messages, and
// handler schedule markers carry the run length (sim.BatchActorID) so
// what-if bottleneck ranking normalizes by messages. A mailbox takes one
// handler, installed before Start.
func (s *Selector[T]) ProcessBatch(mb int, fn func(msgs []T, srcPEs []int)) {
	s.checkMailbox(mb)
	if s.started {
		panic("actor: handler installed after Start")
	}
	if s.mailboxes[mb].handler != nil {
		panic(fmt.Sprintf("actor: mailbox %d already has a handler", mb))
	}
	s.mailboxes[mb].handler = fn
}

// NumMailboxes returns the number of mailboxes.
func (s *Selector[T]) NumMailboxes() int { return len(s.mailboxes) }

// SendCount returns how many messages this PE has sent via mailbox mb.
func (s *Selector[T]) SendCount(mb int) int64 { s.checkMailbox(mb); return s.sendCount[mb] }

// RecvCount returns how many messages this PE has handled on mailbox mb.
func (s *Selector[T]) RecvCount(mb int) int64 { s.checkMailbox(mb); return s.recvCount[mb] }

func (s *Selector[T]) checkMailbox(mb int) {
	if mb < 0 || mb >= len(s.mailboxes) {
		panic(fmt.Sprintf("actor: mailbox %d out of range (selector has %d)", mb, len(s.mailboxes)))
	}
}

// Start launches the selector: its progress worker is scheduled on the
// PE's task queue and will run until every mailbox is done and drained.
// Start must be called inside a Finish scope, whose completion then
// coincides with the selector's termination (Listing 1).
func (s *Selector[T]) Start() {
	if s.started {
		panic("actor: Start called twice")
	}
	for mb := range s.mailboxes {
		if s.mailboxes[mb].handler == nil {
			panic(fmt.Sprintf("actor: mailbox %d has no Process or ProcessBatch handler", mb))
		}
	}
	s.started = true
	var worker func()
	worker = func() {
		s.progress()
		if s.terminated() {
			s.finished = true
			return
		}
		// Wait point: when a Finish drain loop runs this worker and
		// nothing else is queued, the finish body is over and only a
		// remote event can give this PE work, so sleep until the
		// doorbell rings (if the sweep above was idle). Reached through
		// Yield or Promise.Wait the caller has local work - or a barrier
		// - to get back to, and the worker must return at once.
		if s.rt.ctx.SoleDrainTask() {
			s.rt.pe.WaitIdle()
		}
		s.rt.ctx.Async(worker)
	}
	s.rt.ctx.Async(worker)
}

// Send delivers msg asynchronously to mailbox mb of the selector instance
// on PE dst. The message is aggregated; the destination handler runs at
// some later point, interleaved with its PE's own computation. Send may
// execute handlers of *this* PE inline while it waits for aggregation
// buffer space - that interleaving is the FA-BSP model.
func (s *Selector[T]) Send(mb int, msg T, dst int) {
	s.checkMailbox(mb)
	if !s.started {
		panic("actor: Send before Start")
	}
	if s.mailboxes[mb].done {
		panic(fmt.Sprintf("actor: Send on mailbox %d after Done", mb))
	}
	rt := s.rt

	// Message construction and the mailbox append are MAIN-segment user
	// work (Table I): tally the PAPI cost model and charge the clock.
	s.sendCount[mb]++
	rt.engine.Tally(&s.sendWork)
	rt.pe.ChargeInstr(s.sendCyc, s.sendWork.Ins, 1)
	if rt.collecting() {
		rt.pc.LogicalSend(mb, dst, s.codec.Size)
	}

	// Encode straight into the aggregation buffer's reserved slot: no
	// staging copy. Codecs write every byte of the slot (required, since
	// the slot may hold stale data from an earlier generation), and msg
	// is a value, so nested handler sends cannot clobber it.
	c := s.convs[mb]
	if slot, ok := c.PushSlot(dst); ok {
		s.codec.Encode(slot, msg)
		return
	}
	// Aggregation buffer full: enter the runtime (COMM attribution),
	// make progress - which may run this PE's handlers - and retry.
	rt.enterRuntime()
	for {
		c.Advance(false)
		s.drain(mb)
		if slot, ok := c.PushSlot(dst); ok {
			s.codec.Encode(slot, msg)
			break
		}
		// Also progress the other mailboxes; their backlogs can be what
		// holds the window shut on shared intermediate hops.
		for omb := range s.convs {
			if omb != mb {
				s.convs[omb].Advance(s.mailboxes[omb].done)
				s.drain(omb)
			}
		}
		// Wait point: every mailbox of this selector has been swept and
		// the push still has no room, which only a peer's ack can
		// change. Sleeps only if all those sweeps were idle and nothing
		// has been pushed since: the drains above run handlers, whose
		// own Sends may have shipped the buffer this one waits on.
		rt.pe.WaitIdle()
	}
	rt.exitRuntime()
}

// Done declares that this PE will send no more messages on mailbox mb
// (Listing 1's actor_ptr->done(0)). When every mailbox of every PE is
// done and all messages are handled, the selector terminates and the
// enclosing Finish returns.
func (s *Selector[T]) Done(mb int) {
	s.checkMailbox(mb)
	if !s.started {
		panic("actor: Done before Start")
	}
	s.mailboxes[mb].done = true
	// Tell the conveyor immediately so termination detection can begin.
	rt := s.rt
	rt.enterRuntime()
	s.convs[mb].Advance(true)
	s.drain(mb)
	rt.exitRuntime()
}

// DoneAll marks every mailbox done.
func (s *Selector[T]) DoneAll() {
	for mb := range s.mailboxes {
		if !s.mailboxes[mb].done {
			s.Done(mb)
		}
	}
}

// Finished reports whether the selector has fully terminated.
func (s *Selector[T]) Finished() bool { return s.finished }

// MailboxComplete reports whether mailbox mb has globally quiesced: its
// conveyor terminated and every delivered message on this PE handled.
// Multi-phase protocols use it for staged teardown - e.g. a
// request/response selector closes the response mailbox only once the
// request mailbox is complete, since completions guarantee no further
// requests (and hence no further responses) can appear.
func (s *Selector[T]) MailboxComplete(mb int) bool {
	s.checkMailbox(mb)
	return s.convs[mb].Complete() && s.convs[mb].PendingPulls() == 0
}

// Progress makes one round of communication progress synchronously:
// advance every mailbox and dispatch received messages. Long-running
// local computations can call it to interleave handler execution, and
// staged-teardown loops spin on it.
func (s *Selector[T]) Progress() { s.progress() }

// progress advances every mailbox's conveyor and dispatches received
// messages. It is the body of the selector's cooperative worker task.
func (s *Selector[T]) progress() {
	if s.inProgress {
		return
	}
	s.inProgress = true
	rt := s.rt
	rt.enterRuntime()
	for mb := range s.convs {
		s.convs[mb].Advance(s.mailboxes[mb].done)
		s.drain(mb)
	}
	rt.exitRuntime()
	s.inProgress = false
}

// drain dispatches mailbox mb's pending messages in pull-ring runs: each
// contiguous run is decoded into the mailbox's recycled scratch slices
// and handed to the handler as one invocation, carved into the PROC
// regime. Accounting is per message — RecvCount, the PAPI tally and the
// dispatch charge all count n — and the clock takes one EvInstr event
// priced as n dispatches (PE.ChargeInstr), so the simulated time of a
// delivery does not depend on how it fell into runs.
func (s *Selector[T]) drain(mb int) {
	c := s.convs[mb]
	m := &s.mailboxes[mb]
	if m.draining {
		// Re-entered from this mailbox's handler's Send retry loop while
		// the scratch is live; the outer invocation's loop picks up
		// whatever this pass would have pulled. (Pull draining never gates
		// push space, so skipping cannot deadlock the retry.)
		return
	}
	m.draining = true
	rt := s.rt
	w := s.handlerWork
	size := s.codec.Size
	for {
		raw, rawSrcs, n := c.PullRun()
		if n == 0 {
			break
		}
		msgs, srcs := m.msgs, m.srcs
		if cap(msgs) < n || cap(srcs) < n {
			msgs = make([]T, n)
			srcs = make([]int, n)
		}
		msgs, srcs = msgs[:n], srcs[:n]
		m.msgs, m.srcs = msgs, srcs
		// Decode the whole borrowed view before dispatch: the handler may
		// Send, which makes conveyor progress and recycles raw/rawSrcs.
		i := 0
		if s.codec.DecodeBatch != nil {
			i = s.codec.DecodeBatch(msgs, raw)
		}
		for ; i < n; i++ {
			msgs[i] = s.codec.Decode(raw[i*size : (i+1)*size])
		}
		for j, src := range rawSrcs {
			srcs[j] = int(src)
		}
		s.recvCount[mb] += int64(n)
		run := w.Scale(int64(n))
		rt.engine.Tally(&run)
		rt.pe.ChargeInstr(s.handlerCyc, w.Ins, int64(n))
		// Injection point (schedule-only), once per run with the run
		// length as argument: extra yields before dispatch let peers race
		// ahead, perturbing the order handler effects interleave with
		// remote deliveries.
		if rt.pe.HasFault() {
			rt.pe.FaultSchedArg(fault.SiteHandler, int64(n))
		}
		actor := sim.BatchActorID(s.ord, mb, n)
		start := rt.handlerEnter(actor)
		m.handler(msgs, srcs)
		rt.handlerExit(actor, start)
	}
	m.draining = false
}

// terminated reports whether every mailbox's conveyor has completed and
// every delivered message has been handled.
func (s *Selector[T]) terminated() bool {
	for mb := range s.convs {
		if !s.convs[mb].Complete() || s.convs[mb].PendingPulls() > 0 {
			return false
		}
	}
	return true
}
