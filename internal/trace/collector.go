package trace

import (
	"fmt"
	"sort"
	"sync"

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

	// streamDir, when non-empty, switches the collector into streaming
	// mode: records are written to disk as they are produced (see
	// streaming.go) and only counters stay in memory.
	streamDir string
	streams   []*peStream
}

// NewCollector creates a collector for the given machine.
func NewCollector(cfg Config, machine sim.Machine) (*Collector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Collector{
		cfg:     cfg,
		machine: machine,
		set:     NewSet(cfg, machine.NumPEs, machine.PEsPerNode),
	}, nil
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
		parent:  c,
		pe:      pe,
		node:    c.machine.NodeOf(pe),
		machine: c.machine,
		engine:  engine,
	}
	pc.aggregate = c.cfg.Aggregate
	if c.Streaming() {
		s, err := c.openStreams(pe)
		if err != nil {
			panic(fmt.Sprintf("trace: opening stream files for PE %d: %v", pe, err))
		}
		c.mu.Lock()
		c.streams[pe] = s
		c.mu.Unlock()
		pc.stream = s
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
	parent  *Collector
	pe      int
	node    int
	machine sim.Machine
	engine  *papi.Engine

	// stream, when non-nil, receives records directly (streaming mode).
	stream *peStream

	// Aggregate-mode state (Config.Aggregate): records fold into these
	// per-PE accumulators instead of the slices below, and Close merges
	// them into the Set's matrices. aggLogical and aggPhys[kind] are
	// dst-indexed rows for sends initiated by this PE; aggPhysMisc
	// catches the rare event attributed to another PE (or an unknown
	// send kind), folded individually at Close.
	aggregate   bool
	aggLogical  []int64
	aggPhys     [3][]int64
	aggPhysMisc []PhysicalRecord
	aggPAPI     []int64
	msg         stats.Stream

	logical      []LogicalRecord
	logicalCount int64
	papiRecs     []PAPIRecord
	physical     []PhysicalRecord
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

// SegmentToken marks an open segment measurement.
type SegmentToken struct {
	name     string
	cycles0  int64
	counter0 []int64
}

// SegmentEnter begins measuring a named user segment; cycles is the PE's
// current clock. Pair with SegmentExit. Segments may not nest with the
// same token but distinct segments can interleave freely.
func (p *PECollector) SegmentEnter(name string, cycles int64) SegmentToken {
	tok := SegmentToken{name: name, cycles0: cycles}
	if p.engine != nil {
		evs := p.parent.cfg.PAPIEvents
		tok.counter0 = make([]int64, len(evs))
		for i, ev := range evs {
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
			Counters: make([]int64, len(p.parent.cfg.PAPIEvents)),
		}
		p.segments[tok.name] = rec
	}
	rec.Count++
	rec.Cycles += cycles - tok.cycles0
	if p.engine != nil {
		for i, ev := range p.parent.cfg.PAPIEvents {
			rec.Counters[i] += p.engine.Read(ev) - tok.counter0[i]
		}
	}
}

// LogicalSend records one application-level send of msgSize payload bytes
// to PE dst via the given mailbox. It feeds both the logical trace and
// the PAPI trace, as in ActorProf's instrumentation of HClib-Actor.
func (p *PECollector) LogicalSend(mailbox, dst, msgSize int) {
	cfg := p.parent.cfg
	p.logicalCount++
	if cfg.Logical && (p.logicalCount-1)%int64(cfg.LogicalSample) == 0 {
		rec := LogicalRecord{
			SrcNode: p.node,
			SrcPE:   p.pe,
			DstNode: p.machine.NodeOf(dst),
			DstPE:   dst,
			MsgSize: msgSize,
		}
		if p.stream != nil {
			p.stream.logical.put(rec)
		}
		if p.aggregate {
			if p.aggLogical == nil {
				p.aggLogical = make([]int64, p.machine.NumPEs)
			}
			p.aggLogical[dst]++
			p.msg.Observe(int64(msgSize))
		} else if p.stream == nil {
			p.logical = append(p.logical, rec)
		}
	}
	if p.eventSet == nil {
		return
	}
	// Batch sends into a PAPI record. A change of destination or mailbox
	// flushes early so each record's endpoint fields stay meaningful.
	if p.pendingSends > 0 && (p.pendingDst != dst || p.pendingMailbox != mailbox) {
		p.flushPAPI()
	}
	p.pendingDst, p.pendingMailbox, p.pendingPkt = dst, mailbox, msgSize
	p.pendingSends++
	if p.pendingSends >= cfg.PAPIRecordEvery {
		p.flushPAPI()
	}
}

// flushPAPI emits the pending PAPI record with the counter deltas since
// the previous record (PAPI_stop/PAPI_start pair).
func (p *PECollector) flushPAPI() {
	if p.pendingSends == 0 || p.eventSet == nil {
		return
	}
	counters := p.eventSet.Stop()
	p.eventSet.Start()
	rec := PAPIRecord{
		SrcNode:   p.node,
		SrcPE:     p.pe,
		DstNode:   p.machine.NodeOf(p.pendingDst),
		DstPE:     p.pendingDst,
		PktSize:   p.pendingPkt,
		MailboxID: p.pendingMailbox,
		NumSends:  p.pendingSends,
		Counters:  counters,
	}
	p.recordPAPI(rec)
	p.pendingSends = 0
}

// recordPAPI routes a finished PAPI record to the enabled sinks: the
// stream (streaming mode), the per-event aggregate totals (aggregate
// mode), or the in-memory slice.
func (p *PECollector) recordPAPI(rec PAPIRecord) {
	if p.stream != nil {
		p.stream.papi.put(rec)
	}
	if p.aggregate {
		if p.aggPAPI == nil {
			p.aggPAPI = make([]int64, len(p.parent.cfg.PAPIEvents))
		}
		for i, v := range rec.Counters {
			if i < len(p.aggPAPI) {
				p.aggPAPI[i] += v
			}
		}
	} else if p.stream == nil {
		p.papiRecs = append(p.papiRecs, rec)
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
	if !p.parent.cfg.Physical {
		return
	}
	rec := PhysicalRecord{
		Kind: kind, BufBytes: bufBytes, SrcPE: src, DstPE: dst, Cycles: cycles,
	}
	if p.stream != nil {
		p.stream.phys.put(rec)
	}
	if p.aggregate {
		if k := int(kind); src == p.pe && k >= 0 && k < len(p.aggPhys) &&
			dst >= 0 && dst < p.machine.NumPEs {
			row := p.aggPhys[k]
			if row == nil {
				row = make([]int64, p.machine.NumPEs)
				p.aggPhys[k] = row
			}
			row[dst]++
		} else {
			p.aggPhysMisc = append(p.aggPhysMisc, rec)
		}
		return
	}
	if p.stream == nil {
		p.physical = append(p.physical, rec)
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

// Close flushes pending records into the shared Set. Idempotent.
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
		counters := p.eventSet.Stop()
		residual := false
		for _, c := range counters {
			if c != 0 {
				residual = true
				break
			}
		}
		if residual {
			p.recordPAPI(PAPIRecord{
				SrcNode: p.node, SrcPE: p.pe,
				DstNode: p.node, DstPE: p.pe,
				PktSize: 0, MailboxID: -1, NumSends: 0,
				Counters: counters,
			})
		}
	}
	c := p.parent
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.aggregate {
		if p.aggLogical != nil {
			if c.set.LogicalAgg == nil {
				c.set.LogicalAgg = NewMatrix(c.machine.NumPEs)
			}
			row := c.set.LogicalAgg[p.pe]
			for d, v := range p.aggLogical {
				row[d] += v
			}
		}
		c.set.MsgBytes.Merge(p.msg)
		for k, counts := range p.aggPhys {
			if counts == nil {
				continue
			}
			row := c.physAggMatrix(conveyor.SendKind(k))[p.pe]
			for d, v := range counts {
				row[d] += v
			}
		}
		for _, r := range p.aggPhysMisc {
			c.physAggMatrix(r.Kind)[r.SrcPE][r.DstPE]++
		}
		if p.aggPAPI != nil {
			if c.set.PAPIAgg == nil {
				c.set.PAPIAgg = make([][]int64, len(c.cfg.PAPIEvents))
				for i := range c.set.PAPIAgg {
					c.set.PAPIAgg[i] = make([]int64, c.machine.NumPEs)
				}
			}
			for ev, v := range p.aggPAPI {
				c.set.PAPIAgg[ev][p.pe] += v
			}
		}
	}
	c.set.Logical[p.pe] = p.logical
	c.set.LogicalSendCount[p.pe] = p.logicalCount
	c.set.PAPI[p.pe] = p.papiRecs
	c.set.Physical[p.pe] = p.physical
	if p.hasOverall {
		c.set.Overall = append(c.set.Overall, p.overall)
	}
	if len(p.segments) > 0 {
		names := make([]string, 0, len(p.segments))
		for name := range p.segments {
			names = append(names, name)
		}
		sort.Strings(names)
		recs := make([]SegmentRecord, 0, len(names))
		for _, name := range names {
			recs = append(recs, *p.segments[name])
		}
		c.set.Segments[p.pe] = recs
	}
}

// physAggMatrix returns (creating on demand) the aggregate matrix for a
// send kind. Caller holds c.mu.
func (c *Collector) physAggMatrix(kind conveyor.SendKind) Matrix {
	if c.set.PhysicalAgg == nil {
		c.set.PhysicalAgg = make(map[conveyor.SendKind]Matrix)
	}
	m := c.set.PhysicalAgg[kind]
	if m == nil {
		m = NewMatrix(c.machine.NumPEs)
		c.set.PhysicalAgg[kind] = m
	}
	return m
}
