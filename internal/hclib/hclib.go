// Package hclib provides a miniature Habanero-style asynchronous tasking
// runtime: finish/async scopes with a cooperative, single-threaded task
// queue per processing element.
//
// The real HClib multiplexes lightweight tasks over worker threads; in
// the FA-BSP configuration used by HClib-Actor each PE is single-threaded
// and tasks interleave cooperatively. That single-threadedness is a load-
// bearing property of the programming model - message handlers run one at
// a time, so user code needs no atomics (paper Listing 2) - and this
// package preserves it: a Context must only ever be used from one
// goroutine (the PE's), and Finish drains tasks on that same goroutine.
package hclib

// Context is a per-PE cooperative scheduler. It is not safe for
// concurrent use; bind one Context to one PE goroutine.
type Context struct {
	// ring is the FIFO task queue: a power-of-two ring of task values,
	// queued entries at ring[head], ring[head+1], ... (mod len). A task
	// that re-arms itself every poll (the selector progress worker)
	// costs one slot write and one slot clear, no allocation.
	ring []task
	head int
	n    int
	// draining is true while the running task was started by a Finish
	// drain loop rather than by Yield (SoleDrainTask).
	draining bool
	// scopes is the stack of active finish scopes; Async attributes new
	// tasks to the innermost one.
	scopes []*finishScope
}

type task struct {
	fn    func()
	scope *finishScope
}

type finishScope struct {
	pending int
}

// New creates an empty scheduler context.
func New() *Context { return &Context{} }

// SoleDrainTask reports, from inside a running task, whether that task
// was started by a Finish drain loop and no other task is queued. Then
// nothing else can run on this context until the task returns - the
// finish body is over and there is no one to interleave with - which is
// what lets a progress worker sleep until a remote event instead of
// re-arming at once. A task reached through Yield gets false: its caller
// still has work of its own to return to.
func (c *Context) SoleDrainTask() bool { return c.draining && c.n == 0 }

// Async schedules fn to run later on this context, attributed to the
// innermost active finish scope. Calling Async outside any Finish panics:
// such a task could never be awaited, which in HClib is a programming
// error caught at teardown.
func (c *Context) Async(fn func()) {
	if len(c.scopes) == 0 {
		panic("hclib: Async called outside a Finish scope")
	}
	s := c.scopes[len(c.scopes)-1]
	s.pending++
	if c.n == len(c.ring) {
		c.grow()
	}
	c.ring[(c.head+c.n)&(len(c.ring)-1)] = task{fn: fn, scope: s}
	c.n++
}

// grow doubles the ring, unrolling the queued tasks to its start.
func (c *Context) grow() {
	grown := make([]task, max(8, 2*len(c.ring)))
	for i := 0; i < c.n; i++ {
		grown[i] = c.ring[(c.head+i)&(len(c.ring)-1)]
	}
	c.ring, c.head = grown, 0
}

// Finish runs body, then drains tasks until every task transitively
// spawned within this scope has completed (hclib::finish). Tasks spawned
// by tasks are attributed to the scope active when Async is called, so a
// task that re-schedules itself (the selector progress worker) keeps its
// finish scope open until it stops re-scheduling.
func (c *Context) Finish(body func()) {
	s := &finishScope{}
	c.scopes = append(c.scopes, s)
	body()
	for s.pending > 0 {
		if !c.runOne(true) {
			// Queue empty while tasks are still pending can only mean a
			// bookkeeping bug; fail loudly rather than spin forever.
			panic("hclib: finish scope has pending tasks but the queue is empty")
		}
	}
	c.scopes = c.scopes[:len(c.scopes)-1]
}

// Yield runs at most one queued task, returning whether one ran. Long
// computations can call Yield to let runtime workers (e.g. the selector
// progress loop) interleave, which is the "fine-grained asynchronous"
// half of FA-BSP.
func (c *Context) Yield() bool { return c.runOne(false) }

// runOne pops and executes the task at the head of the queue. drain
// says whether a Finish drain loop is the caller (see SoleDrainTask);
// the previous value is restored afterwards because tasks nest - a
// drained task may Yield, and a yielded-to task may open a Finish.
func (c *Context) runOne(drain bool) bool {
	if c.n == 0 {
		return false
	}
	t := c.ring[c.head]
	c.ring[c.head] = task{} // drop the references the slot held
	c.head = (c.head + 1) & (len(c.ring) - 1)
	c.n--
	outer := c.draining
	c.draining = drain
	t.fn()
	c.draining = outer
	t.scope.pending--
	return true
}
