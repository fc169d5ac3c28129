package serve

import (
	"bytes"
	"compress/gzip"
	"container/list"
	"errors"
	"sync"
)

// renderResult is one rendered artifact: the identity bytes, an
// optional gzip-encoded variant (nil when compression is not
// worthwhile), and the content type both are served with.
type renderResult struct {
	data        []byte
	gz          []byte
	contentType string
}

// size is the entry's charge against the cache byte budget: both
// variants are cached together, so both count.
func (r renderResult) size() int64 { return int64(len(r.data) + len(r.gz)) }

// gzipMinBytes is the smallest artifact worth gzip-encoding: below it
// the gzip framing eats most of the saving.
const gzipMinBytes = 860

// gzipWriters holds idle BestSpeed compressors. A miss takes one, Resets
// it onto its own scratch buffer, and returns it after Close: a writer is
// never shared by two renders, and no miss allocates a compressor.
var gzipWriters = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
	return zw
}}

// scratchBuffers holds the buffers a miss renders and compresses into;
// what the cache keeps is copied out of them at its exact size.
var scratchBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// withGzip makes res ready for the cache: res.data is copied to an
// exact-size slice (it may be a scratch buffer's view), and a gzip
// variant is attached when the payload is large enough to matter
// (gzipMinBytes) and compression actually shrinks it by at least 10%.
// Both variants have cap == len, so the entry's size() is what the cache
// holds. Called inside the render closure, so the compression cost is
// paid once per cache entry, not per response.
func withGzip(res renderResult) renderResult {
	res.data = exactCopy(res.data)
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

// flight tracks one in-progress render so that concurrent requests for
// the same artifact wait for it instead of rendering redundantly
// (single-flight de-duplication).
type flight struct {
	done chan struct{}
	res  renderResult
	err  error
}

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
	flights   map[string]*flight
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
		flights:  make(map[string]*flight),
	}
}

// getOrRender returns the cached artifact for key, or renders it.
// Concurrent calls with the same key share one render: the first caller
// runs render() outside the lock, the rest block on its completion.
// Render errors are returned to every waiter and are not cached.
func (c *cache) getOrRender(key string, render func() (renderResult, error)) (renderResult, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.touchLocked(el)
		res := el.Value.(*entry).res
		c.mu.Unlock()
		c.metrics.cacheHits.Add(1)
		return res, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.metrics.cacheCoalesced.Add(1)
		<-f.done
		return f.res, f.err
	}
	f := &flight{done: make(chan struct{})}
	// A render that panics unwinds past the assignment below; waiters
	// then see this error instead of a zero result.
	f.err = errors.New("serve: render aborted")
	c.flights[key] = f
	c.mu.Unlock()
	c.metrics.cacheMisses.Add(1)

	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insertLocked(key, f.res)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.res, f.err = render()
	return f.res, f.err
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
