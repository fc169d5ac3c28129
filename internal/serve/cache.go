package serve

import (
	"bytes"
	"compress/gzip"
	"container/list"
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// renderResult is one cache entry: an artifact's identity bytes, or its
// gzip variant (the gzip bytes alone, or the identity bytes when gzip is
// not worthwhile), and the content type either is served with.
type renderResult struct {
	data        []byte
	gz          []byte
	contentType string
}

// size is the entry's charge against the cache byte budget.
func (r renderResult) size() int64 { return int64(len(r.data) + len(r.gz)) }

// gzipMinBytes is the smallest artifact worth gzip-encoding: below it
// the gzip framing eats most of the saving.
const gzipMinBytes = 860

// gzipWriters holds idle BestSpeed compressors. A render takes one, Resets
// it onto its own scratch buffer, and returns it after Close: no two
// renders share a writer, and no render allocates a compressor.
var gzipWriters = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
	return zw
}}

// scratchBuffers holds the buffers a miss renders and compresses into;
// what the cache keeps is copied out of them at its exact size.
var scratchBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// withGzip attaches to res a gzip encoding of res.data, as an exact-size
// copy, when the payload is large enough to matter (gzipMinBytes) and
// compression actually shrinks it by at least 10%.
func withGzip(res renderResult) renderResult {
	if len(res.data) < gzipMinBytes {
		return res
	}
	buf := scratchBuffers.Get().(*bytes.Buffer)
	defer scratchBuffers.Put(buf)
	buf.Reset()
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(buf)
	zw.Write(res.data)
	err := zw.Close()
	gzipWriters.Put(zw)
	if err != nil || buf.Len() >= len(res.data)*9/10 {
		return res
	}
	res.gz = exactCopy(buf.Bytes())
	return res
}

func exactCopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// flight is one piece of work that can block - a render, a parse, a
// disk scan - run on its own goroutine. Every request that needs its
// result waits on done, each only up to its own deadline; the work runs
// to the end regardless, so what it produces is kept for the next
// request, as an abandoned handler's render always was.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// The kinds of flight a request can wait on, as /metrics labels its
// timeouts.
type flightKind uint8

const (
	kindRender flightKind = iota
	kindParse
	kindScan
)

var flightKinds = [...]string{kindRender: "render", kindParse: "parse", kindScan: "scan"}

// fly starts work in a new flight. land, when non-nil, runs once the
// result is known and before any waiter sees it. A panic in work becomes
// the flight's error - its waiters answer 500 - instead of killing the
// daemon. seam, when non-nil, runs first (a test holds or fails a
// flight through it).
func fly[T any](kind flightKind, seam func(string), work func() (T, error), land func(*flight[T])) *flight[T] {
	f := &flight[T]{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer func() {
			if p := recover(); p != nil { // work never returned, so f.val is zero
				f.err = fmt.Errorf("serve: %s panicked: %v", flightKinds[kind], p)
				log.Printf("serve: %s panicked: %v\n%s", flightKinds[kind], p, debug.Stack())
			}
			if land != nil {
				land(f)
			}
		}()
		if seam != nil {
			seam(flightKinds[kind])
		}
		f.val, f.err = work()
	}()
	return f
}

// landed reports whether f's result is known, without waiting.
func (f *flight[T]) landed() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// deadline is what a request brings to a wait: the instant it stops
// waiting, and its context, whose end (the client went away) stops it
// too. The zero deadline waits until the flight lands.
type deadline struct {
	at  time.Time
	ctx context.Context
}

// timedOut is the error of a request whose deadline passed while it
// waited on a flight of the given kind.
type timedOut flightKind

func (timedOut) Error() string { return "request timed out" }

// wait returns f's result once it lands, or an error once d passes or
// d's request ends first. A landed flight answers without arming a timer.
func (f *flight[T]) wait(d deadline, kind flightKind) (T, error) {
	if !f.landed() {
		var expired <-chan time.Time
		if !d.at.IsZero() {
			t := time.NewTimer(time.Until(d.at))
			defer t.Stop()
			expired = t.C
		}
		var gone <-chan struct{}
		if d.ctx != nil {
			gone = d.ctx.Done()
		}
		select {
		case <-f.done:
		case <-expired:
			return *new(T), timedOut(kind)
		case <-gone:
			return *new(T), errClientGone
		}
	}
	return f.val, f.err
}

// errClientGone ends the wait of a request whose client went away.
var errClientGone = statusError{code: http.StatusServiceUnavailable, msg: "client went away"}

// cache is a byte-budgeted, scan-resistant segmented LRU (SLRU) of
// rendered artifacts. Keys embed the source directory's fingerprint, so
// a changed trace directory naturally misses and renders fresh
// bytes while the stale entry ages out; nothing needs explicit
// invalidation.
//
// Admission policy: a newly rendered entry enters the probationary
// segment; only an entry that is hit again is promoted to the protected
// segment (capped at 80% of the byte budget, demoting its own LRU tail
// back to probation when full). Eviction drains probation first and
// touches protection only when probation cannot yield the bytes. A
// one-shot scan - thousands of keys requested exactly once - therefore
// churns only the probationary 20% of the budget and cannot evict the
// promoted hot set, which is what keeps p99 flat under adversarial
// mixes (DESIGN.md §12).
type cache struct {
	maxBytes int64
	protMax  int64 // protected-segment byte cap (80% of maxBytes)
	metrics  *Metrics

	mu        sync.Mutex
	probBytes int64
	protBytes int64
	prob      *list.List // seen once; front = most recently used
	prot      *list.List // seen twice or more; front = most recently used
	items     map[string]*list.Element
	flights   map[string]*flight[renderResult]

	seam func(kind string) // test seam: runs at the start of every render
}

type entry struct {
	key       string
	res       renderResult
	protected bool
}

func newCache(maxBytes int64, m *Metrics) *cache {
	return &cache{
		maxBytes: maxBytes,
		protMax:  maxBytes * 4 / 5,
		metrics:  m,
		prob:     list.New(),
		prot:     list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight[renderResult]),
	}
}

// get returns the cached artifact for key, or renders it. A miss
// renders in a flight; concurrent requests for the same key wait on
// that one flight, each up to its own deadline. Render errors are
// returned to every waiter and are not cached.
func (c *cache) get(key string, d deadline, render func() (renderResult, error)) (renderResult, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.touchLocked(el)
		res := el.Value.(*entry).res
		c.mu.Unlock()
		c.metrics.cacheHits.Add(1)
		return res, nil
	}
	f, ok := c.flights[key]
	if ok {
		c.metrics.cacheCoalesced.Add(1)
	} else {
		c.metrics.cacheMisses.Add(1)
		f = fly(kindRender, c.seam, render, func(f *flight[renderResult]) {
			c.mu.Lock()
			delete(c.flights, key)
			if f.err == nil {
				c.insertLocked(key, f.val)
			}
			c.mu.Unlock()
		})
		c.flights[key] = f
	}
	c.mu.Unlock()
	return f.wait(d, kindRender)
}

// peek returns key's entry, if cached, without touching its recency.
func (c *cache) peek(key string) (res renderResult, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry).res, true
	}
	return res, false
}

// touchLocked records a hit: protected entries move to their segment's
// front; probationary entries earn promotion into the protected
// segment, whose own LRU tail demotes back to probation when the 80%
// cap overflows. Promotion and demotion move bytes between segments but
// never change the total, so no eviction can be needed here.
func (c *cache) touchLocked(el *list.Element) {
	e := el.Value.(*entry)
	if e.protected {
		c.prot.MoveToFront(el)
		return
	}
	c.prob.Remove(el)
	c.probBytes -= e.res.size()
	e.protected = true
	c.items[e.key] = c.prot.PushFront(e)
	c.protBytes += e.res.size()
	for c.protBytes > c.protMax && c.prot.Len() > 1 {
		tail := c.prot.Back()
		te := tail.Value.(*entry)
		c.prot.Remove(tail)
		c.protBytes -= te.res.size()
		te.protected = false
		c.items[te.key] = c.prob.PushFront(te)
		c.probBytes += te.res.size()
	}
}

// insertLocked admits res under key into the probationary segment and
// evicts until the byte budget holds again: probation drains from its
// cold end first, protection only when probation is exhausted. The
// newest entry always stays, even when it alone exceeds the budget: the
// bytes are already rendered, and serving repeats of an oversized
// artifact is the whole point of the cache.
func (c *cache) insertLocked(key string, res renderResult) {
	if el, ok := c.items[key]; ok {
		// A fresher render of the same key (possible when the entry was
		// evicted and re-requested while we rendered): replace it.
		c.removeLocked(el)
	}
	c.items[key] = c.prob.PushFront(&entry{key: key, res: res})
	c.probBytes += res.size()
	for c.probBytes+c.protBytes > c.maxBytes {
		var victim *list.Element
		switch {
		case c.prob.Len() > 1:
			victim = c.prob.Back()
		case c.prot.Len() > 0:
			victim = c.prot.Back()
		default:
			c.metrics.cacheBytes.Store(c.probBytes + c.protBytes)
			return // only the just-admitted entry remains; it stays
		}
		c.removeLocked(victim)
		c.metrics.cacheEvictions.Add(1)
	}
	c.metrics.cacheBytes.Store(c.probBytes + c.protBytes)
}

// removeLocked unlinks an entry from its segment and the key map,
// returning its bytes to the budget.
func (c *cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	if e.protected {
		c.prot.Remove(el)
		c.protBytes -= e.res.size()
	} else {
		c.prob.Remove(el)
		c.probBytes -= e.res.size()
	}
	delete(c.items, e.key)
}

// len reports the number of cached entries (test hook).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prob.Len() + c.prot.Len()
}

// contains reports whether key is currently cached (test hook; does not
// touch recency).
func (c *cache) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// accounting recomputes segment byte totals from the lists and reports
// them alongside the running counters (test hook: the two must agree
// and never go negative).
func (c *cache) accounting() (probBytes, protBytes int64, entries int, consistent bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var walkProb, walkProt int64
	for el := c.prob.Front(); el != nil; el = el.Next() {
		walkProb += el.Value.(*entry).res.size()
	}
	for el := c.prot.Front(); el != nil; el = el.Next() {
		walkProt += el.Value.(*entry).res.size()
	}
	consistent = walkProb == c.probBytes && walkProt == c.protBytes &&
		c.probBytes >= 0 && c.protBytes >= 0 &&
		len(c.items) == c.prob.Len()+c.prot.Len()
	return c.probBytes, c.protBytes, len(c.items), consistent
}
