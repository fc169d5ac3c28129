// Package fixture: borrowed conveyor views escaping their borrow window.
package fixture

import (
	"actorprof/internal/actor"
	"actorprof/internal/conveyor"
)

var lastMsg []byte

type inbox struct{ last []byte }

func fieldStore(c *conveyor.Conveyor, box *inbox) {
	item, _, ok := c.Pull()
	if !ok {
		return
	}
	box.last = item // line 18: view escapes to a struct field
}

func globalStore(c *conveyor.Conveyor) {
	if item, _, ok := c.Pull(); ok {
		lastMsg = item // line 23: view escapes to a package-level variable
	}
}

func channelSend(c *conveyor.Conveyor, out chan []byte) {
	if slot, ok := c.PushSlot(1); ok {
		out <- slot // line 29: push slot escapes over a channel
	}
}

func goroutineCapture(c *conveyor.Conveyor) {
	item, _, ok := c.Pull()
	if !ok {
		return
	}
	go func() {
		_ = item[0] // line 39: view captured by a goroutine
	}()
}

func staleAfterAdvance(c *conveyor.Conveyor) byte {
	item, _, ok := c.Pull()
	if !ok {
		return 0
	}
	c.Advance(false)
	return item[0] // line 49: read after conveyor progress recycled it
}

func staleAfterSend(c *conveyor.Conveyor, sel *actor.Selector[int64]) byte {
	item, _, ok := c.Pull()
	if !ok {
		return 0
	}
	sel.Send(0, 1, 2)
	return item[0] // line 58: read after actor progress (Send may advance)
}

func stash(b []byte) { lastMsg = b }

func interprocEscape(c *conveyor.Conveyor) {
	if item, _, ok := c.Pull(); ok {
		stash(item) // line 65: callee's summary says the parameter escapes
	}
}

func pullOne(c *conveyor.Conveyor) []byte {
	item, _, _ := c.Pull()
	return item // fine: returning a view hands the borrow to the caller
}

func indirectStale(c *conveyor.Conveyor) byte {
	v := pullOne(c)
	c.Advance(false)
	return v[0] // line 77: borrowed-through-helper view read after progress
}

type keyBox struct{ keys []int64 }

var lastSrcs []int

var storedKeys []int64

func keepKeys(ks []int64) { storedKeys = ks }

func batchFieldStore(sel *actor.Selector[int64], box *keyBox) {
	sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {
		box.keys = msgs // batch scratch escapes to a struct field
	})
}

func batchGlobalSrcs(sel *actor.Selector[int64]) {
	sel.ProcessBatch(1, func(msgs []int64, srcPEs []int) {
		lastSrcs = srcPEs
	})
}

func batchInterprocEscape(sel *actor.Selector[int64]) {
	sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {
		keepKeys(msgs) // callee's summary says the parameter escapes
	})
}

func batchGoroutineCapture(sel *actor.Selector[int64]) {
	sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {
		go func() {
			_ = msgs[0] // batch scratch captured by a goroutine
		}()
	})
}

func batchChannelSend(sel *actor.Selector[int64], out chan []int64) {
	sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {
		out <- msgs // batch scratch escapes over a channel
	})
}

var kept []int64

func keep(msgs []int64, srcPEs []int) {
	kept = msgs
}

func namedBatchHandler(sel *actor.Selector[int64]) {
	sel.ProcessBatch(0, keep)
}
