package hclib

// Promise is a single-assignment container, the HClib promise/future
// pair restricted to the cooperative single-threaded setting: Put may be
// called once (typically from a task or a message handler), and Wait
// drives the scheduler until the value arrives. Because everything runs
// on one goroutine, Wait must only be called where queued tasks can make
// the Put happen - waiting with an empty queue is a programming error
// and panics rather than deadlocking.
type Promise[T any] struct {
	ctx   *Context
	value T
	done  bool
}

// NewPromise creates an unfulfilled promise bound to the context.
func NewPromise[T any](ctx *Context) *Promise[T] {
	return &Promise[T]{ctx: ctx}
}

// Put fulfills the promise. A second Put panics, as in HClib.
func (p *Promise[T]) Put(v T) {
	if p.done {
		panic("hclib: promise fulfilled twice")
	}
	p.value = v
	p.done = true
}

// Ready reports whether the value has been put.
func (p *Promise[T]) Ready() bool { return p.done }

// Get returns the value, panicking if the promise is unfulfilled (use
// Wait to block cooperatively).
func (p *Promise[T]) Get() T {
	if !p.done {
		panic("hclib: Get on an unfulfilled promise")
	}
	return p.value
}

// Wait runs queued tasks until the promise is fulfilled, then returns
// the value. Panics if the queue drains while the promise is still
// empty - nothing left could ever fulfill it.
func (p *Promise[T]) Wait() T {
	for !p.done {
		if !p.ctx.runOne(false) {
			panic("hclib: Wait on a promise no queued task can fulfill")
		}
	}
	return p.value
}

// AsyncFuture schedules fn as a task and returns a promise fulfilled
// with its result (hclib::async_future).
func AsyncFuture[T any](ctx *Context, fn func() T) *Promise[T] {
	p := NewPromise[T](ctx)
	ctx.Async(func() { p.Put(fn()) })
	return p
}
