package trace

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"actorprof/internal/blocks"
	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/sim"
	"actorprof/internal/stats"
)

// Collector gathers trace data for one run across all PEs. Create one
// Collector, then obtain a PECollector per PE with ForPE; per-PE methods
// are called from that PE's goroutine only, and Finish assembles the Set.
type Collector struct {
	cfg     Config
	machine sim.Machine

	mu  sync.Mutex
	set *Set
}

// NewCollector creates a collector for the given machine.
func NewCollector(cfg Config, machine sim.Machine) (*Collector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set := NewSet(cfg, machine.NumPEs, machine.PEsPerNode)
	if cfg.Aggregate {
		set.memo.collected = &Summary{NumPEs: machine.NumPEs, Config: cfg}
	}
	return &Collector{cfg: cfg, machine: machine, set: set}, nil
}

// Config returns the collector's configuration (with defaults applied).
func (c *Collector) Config() Config { return c.cfg }

// Set returns the assembled trace set. Call only after every PE's
// PECollector has been Closed.
func (c *Collector) Set() *Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.set
}

// ForPE creates the per-PE collection handle. engine is the PE's PAPI
// counter bank (may be nil when no PAPI events are configured).
func (c *Collector) ForPE(pe int, engine *papi.Engine) *PECollector {
	pc := &PECollector{
		parent: c,
		pe:     pe,
		npes:   c.machine.NumPEs,
		engine: engine,

		aggregate:   c.cfg.Aggregate,
		logicalOn:   c.cfg.Logical,
		physicalOn:  c.cfg.Physical,
		sampleEvery: c.cfg.LogicalSample,
		untilSample: 1,
		papiEvery:   c.cfg.PAPIRecordEvery,
		events:      c.cfg.PAPIEvents,
	}
	if len(c.cfg.PAPIEvents) > 0 {
		if engine == nil {
			panic("trace: PAPI events configured but no engine supplied")
		}
		es, err := papi.NewEventSet(engine, c.cfg.PAPIEvents...)
		if err != nil {
			// Config.Validate bounds the event count; remaining errors
			// are programming mistakes.
			panic(err)
		}
		pc.eventSet = es
		// The PAPI region deliberately spans the PE's whole lifetime:
		// started here, read out and restarted by flushPAPI, stopped for
		// good in Close.
		es.Start() //actorvet:ignore unpairedregion
	}
	return pc
}

// PECollector receives trace events from one PE. Not safe for concurrent
// use; the owning PE goroutine calls it.
type PECollector struct {
	parent *Collector
	pe     int
	engine *papi.Engine

	// What the send path needs of the configuration and the machine,
	// copied here by ForPE so a send reads a few words of its own
	// collector instead of copying the parent's Config.
	npes        int
	logicalOn   bool
	physicalOn  bool
	sampleEvery int // Config.LogicalSample
	untilSample int // sends until the next sampled logical record; 1 = the next one
	papiEvery   int // Config.PAPIRecordEvery
	events      []papi.Event

	// Aggregate-mode state (Config.Aggregate): records fold into these
	// per-PE accumulators instead of the buffers below, and Close merges
	// them into the partial Summary the Set reports. aggLogical and
	// aggPhys[kind] are dst-indexed rows for sends initiated by this PE;
	// aggPhysMisc catches the rare event attributed to another PE (or an
	// unknown send kind), folded individually at Close. No PAPI record
	// outlives its fold into aggPAPI, so only the per-event sums are
	// observable; the sum of back-to-back stop/start deltas is one delta,
	// so sends only count and Close's flush reads the counters once.
	aggregate   bool
	aggLogical  []int64
	aggPhys     [3][]int64
	aggPhysMisc []PhysicalRecord
	aggPAPI     []int64
	msg         stats.Stream

	// Record-mode state (not aggregate). A send lands once, packed, in
	// PE-private blocks, and its counter deltas stay in the chunk
	// StopInto wrote them to: the i-th PAPI record's are the i-th slot of
	// chunks. Close flattens the blocks into the Set's exact-size slices
	// and joins the chunks into its counter column. Until then nothing
	// else may see them, afterwards they are immutable (DESIGN.md §8).
	logical  blocks.Buf[LogicalSend]
	papiRecs blocks.Buf[PAPISend]
	physical blocks.Buf[PhysicalRecord]
	chunks   [][]int64 // counter slots, len(events) each: see slot
	// scratch receives the counter deltas aggregate mode folds, so that
	// mode allocates no chunk.
	scratch [papi.MaxConcurrentEvents]int64

	logicalCount int64
	overall      OverallRecord
	hasOverall   bool

	// eventSet measures user-region counter deltas between PAPI records.
	eventSet *papi.EventSet
	// pending accumulates sends not yet flushed into a PAPIRecord when
	// PAPIRecordEvery > 1.
	pendingSends   int
	pendingDst     int
	pendingMailbox int
	pendingPkt     int

	// segments aggregates named user segments (SegmentEnter/Exit).
	segments map[string]*SegmentRecord

	closed bool
}

// pack narrows a record field to its packed width. Like sim.InstrRun, a
// value that does not fit panics rather than wraps.
func pack(v int, field string) int32 {
	if int(int32(v)) != v {
		panic(fmt.Sprintf("trace: %s %d does not fit a packed record", field, v))
	}
	return int32(v)
}

// SegmentToken marks an open segment measurement.
type SegmentToken struct {
	name     string
	cycles0  int64
	counter0 [papi.MaxConcurrentEvents]int64
}

// SegmentEnter begins measuring a named user segment; cycles is the PE's
// current clock. Pair with SegmentExit. Segments may not nest with the
// same token but distinct segments can interleave freely.
func (p *PECollector) SegmentEnter(name string, cycles int64) SegmentToken {
	tok := SegmentToken{name: name, cycles0: cycles}
	if p.engine != nil {
		for i, ev := range p.events {
			tok.counter0[i] = p.engine.Read(ev)
		}
	}
	return tok
}

// SegmentExit completes a segment measurement opened by SegmentEnter.
func (p *PECollector) SegmentExit(tok SegmentToken, cycles int64) {
	if p.segments == nil {
		p.segments = make(map[string]*SegmentRecord)
	}
	rec := p.segments[tok.name]
	if rec == nil {
		rec = &SegmentRecord{
			PE: p.pe, Name: tok.name,
			Counters: make([]int64, len(p.events)),
		}
		p.segments[tok.name] = rec
	}
	rec.Count++
	rec.Cycles += cycles - tok.cycles0
	if p.engine != nil {
		for i, ev := range p.events {
			rec.Counters[i] += p.engine.Read(ev) - tok.counter0[i]
		}
	}
}

// LogicalSend records one application-level send of msgSize payload bytes
// to PE dst via the given mailbox. It feeds both the logical trace and
// the PAPI trace, as in ActorProf's instrumentation of HClib-Actor.
func (p *PECollector) LogicalSend(mailbox, dst, msgSize int) {
	p.logicalCount++
	if p.logicalOn {
		// Sends 1, 1+N, 1+2N, ... are sampled: a countdown, not a modulo.
		if p.untilSample--; p.untilSample == 0 {
			p.untilSample = p.sampleEvery
			p.recordLogical(dst, msgSize)
		}
	}
	if p.eventSet == nil {
		return
	}
	if p.aggregate {
		p.pendingSends++
		return
	}
	// Batch sends into a PAPI record. A change of destination or mailbox
	// flushes early so each record's endpoint fields stay meaningful.
	if p.pendingSends > 0 && (p.pendingDst != dst || p.pendingMailbox != mailbox) {
		p.flushPAPI()
	}
	p.pendingDst, p.pendingMailbox, p.pendingPkt = dst, mailbox, msgSize
	p.pendingSends++
	if p.pendingSends >= p.papiEvery {
		p.flushPAPI()
	}
}

// recordLogical records or folds a sampled logical record, as recordPAPI
// does for PAPI records.
func (p *PECollector) recordLogical(dst, msgSize int) {
	if !p.aggregate {
		p.logical.Push(LogicalSend{pack(dst, "dst"), pack(msgSize, "msgSize")})
		return
	}
	if p.aggLogical == nil {
		p.aggLogical = make([]int64, p.npes)
	}
	p.aggLogical[dst]++
	p.msg.Observe(int64(msgSize))
}

// stopCounters ends the running PAPI region and returns its counter
// deltas: in the next chunk slot in record mode (the record aliases it
// for the life of the Set), in the per-PE scratch otherwise (valid until
// the next call).
func (p *PECollector) stopCounters() []int64 {
	counters := p.scratch[:len(p.events)]
	if !p.aggregate {
		counters = p.slot(p.papiRecs.Len())
	}
	p.eventSet.StopInto(counters)
	return counters
}

// chunkWords is the size of a counter chunk: one allocation per
// chunkWords / len(events) PAPI records.
const chunkWords = 4096

// slot returns the counters of the i-th retained PAPI record, capped at
// their own length, adding the chunk that holds them if i is the next.
func (p *PECollector) slot(i int) []int64 {
	k := len(p.events)
	per := chunkWords / k
	if i/per == len(p.chunks) {
		p.chunks = append(p.chunks, make([]int64, per*k))
	}
	return p.chunks[i/per][i%per*k:][:k:k]
}

// flushPAPI emits the pending PAPI record with the counter deltas since
// the previous record (PAPI_stop/PAPI_start pair).
func (p *PECollector) flushPAPI() {
	if p.pendingSends == 0 || p.eventSet == nil {
		return
	}
	counters := p.stopCounters()
	// Re-opens the lifetime-long region of ForPE that stopCounters just
	// read out.
	p.eventSet.Start() //actorvet:ignore unpairedregion
	p.recordPAPI(p.pendingDst, p.pendingPkt, p.pendingMailbox, p.pendingSends, counters)
	p.pendingSends = 0
}

// recordPAPI records a finished PAPI record packed into the in-memory
// blocks (counters already sit in their slot), or folds its counters into
// the per-event aggregate totals.
func (p *PECollector) recordPAPI(dst, pkt, mailbox, sends int, counters []int64) {
	if !p.aggregate {
		// sends <= PAPIRecordEvery, which Config.Validate holds inside int32.
		p.papiRecs.Push(PAPISend{pack(dst, "dst"), pack(pkt, "msgSize"), pack(mailbox, "mailbox"), int32(sends)})
		return
	}
	if p.aggPAPI == nil {
		p.aggPAPI = make([]int64, len(p.events))
	}
	for i, v := range counters {
		p.aggPAPI[i] += v
	}
}

// PhysicalSend records one Conveyors transfer event; wire it to
// conveyor.Options.OnPhysical.
func (p *PECollector) PhysicalSend(kind conveyor.SendKind, bufBytes, src, dst int) {
	p.PhysicalSendAt(kind, bufBytes, src, dst, 0)
}

// PhysicalSendAt records one Conveyors transfer event with the
// initiating PE's clock value, enabling the Google Trace Event export.
func (p *PECollector) PhysicalSendAt(kind conveyor.SendKind, bufBytes, src, dst int, cycles int64) {
	if !p.physicalOn {
		return
	}
	rec := PhysicalRecord{
		Kind: kind, BufBytes: bufBytes, SrcPE: src, DstPE: dst, Cycles: cycles,
	}
	if !p.aggregate {
		p.physical.Push(rec)
		return
	}
	if k := int(kind); src == p.pe && k >= 0 && k < len(p.aggPhys) &&
		dst >= 0 && dst < p.npes {
		row := p.aggPhys[k]
		if row == nil {
			row = make([]int64, p.npes)
			p.aggPhys[k] = row
		}
		row[dst]++
	} else {
		p.aggPhysMisc = append(p.aggPhysMisc, rec)
	}
}

// OverallBreakdown records the PE's cycle breakdown; T_COMM is derived as
// total minus MAIN minus PROC, as the paper specifies.
func (p *PECollector) OverallBreakdown(tMain, tProc, tTotal int64) {
	if !p.parent.cfg.Overall {
		return
	}
	comm := tTotal - tMain - tProc
	if comm < 0 {
		comm = 0
	}
	p.overall = OverallRecord{
		PE: p.pe, TMain: tMain, TProc: tProc, TComm: comm, TTotal: tTotal,
	}
	p.hasOverall = true
}

// counterColumn joins the counter chunks into the exact-size column of
// the n retained PAPI records (nil when there are none) and drops them.
func (p *PECollector) counterColumn(n int) []int64 {
	if n == 0 {
		return nil
	}
	col, off := make([]int64, n*len(p.events)), 0
	for _, chunk := range p.chunks {
		off += copy(col[off:], chunk)
	}
	p.chunks = nil
	return col
}

// Close flushes pending records into the shared Set. Idempotent. The
// hand-over copies and the segment sort happen before the collector's
// lock is taken, so PEs finishing together do not queue behind each
// other's memmove. A record is copied once, at its packed width: the Set
// holds what the blocks held (DESIGN.md §8).
func (p *PECollector) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.flushPAPI()
	if p.eventSet != nil && p.eventSet.Running() {
		// Emit a residual record for user-region work performed after
		// the last send (the drain phase handles most receives on
		// recv-heavy PEs). NumSends 0 and MailboxID -1 mark it; per-PE
		// totals would otherwise under-count and depend on scheduling.
		if counters := p.stopCounters(); slices.ContainsFunc(counters, func(c int64) bool { return c != 0 }) {
			p.recordPAPI(p.pe, 0, -1, 0, counters)
		}
	}
	logical, papiRecs := p.logical.Flatten(), p.papiRecs.Flatten()
	counters := p.counterColumn(len(papiRecs))
	physical := p.physical.Flatten()
	var segments []SegmentRecord
	if len(p.segments) > 0 {
		names := make([]string, 0, len(p.segments))
		for name := range p.segments {
			names = append(names, name)
		}
		sort.Strings(names)
		segments = make([]SegmentRecord, 0, len(names))
		for _, name := range names {
			segments = append(segments, *p.segments[name])
		}
	}

	c := p.parent
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.aggregate {
		sum := c.set.memo.collected
		for dst, n := range p.aggLogical {
			sum.addLogical(p.pe, dst, n)
		}
		sum.MsgBytes.Merge(p.msg)
		for k, counts := range p.aggPhys {
			if counts == nil {
				continue
			}
			row := sum.physicalOf(conveyor.SendKind(k))[p.pe]
			for dst, n := range counts {
				row[dst] += n
			}
		}
		for _, r := range p.aggPhysMisc {
			sum.foldPhysical(r)
		}
		sum.addPAPI(p.pe, p.aggPAPI)
	}
	c.set.Logical[p.pe] = logical
	c.set.LogicalSendCount[p.pe] = p.logicalCount
	c.set.PAPI[p.pe], c.set.PAPICounters[p.pe] = papiRecs, counters
	c.set.Physical[p.pe] = physical
	if p.hasOverall {
		c.set.Overall = append(c.set.Overall, p.overall)
	}
	if segments != nil {
		c.set.Segments[p.pe] = segments
	}
}
