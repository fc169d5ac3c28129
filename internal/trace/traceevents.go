package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"actorprof/internal/conveyor"
	"actorprof/internal/tsc"
)

// traceEvent is one record of the Google Trace Event format ("Trace
// Event Format", the chrome://tracing / Perfetto JSON form). The
// paper's Section VI lists adopting this format as future work;
// ExportPerfetto implements the full model (durations, counters,
// metadata).
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds (or sequence index)
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// clockDomainArgs is the metadata payload that tells a consumer which
// domain the stream's timestamps live in. Mixing domains in one stream
// - which the pre-fix exporter did, falling back to the sequence index
// for individual records with zero clocks - renders as garbage, so the
// domain is decided once for the whole trace and stamped here.
func clockDomainArgs(domain ClockDomain) map[string]any {
	unit := "sequence index"
	if domain == DomainCycles {
		unit = "microseconds (3 GHz virtual clock)"
	}
	return map[string]any{"clock_domain": domain.String(), "unit": unit}
}

// perfettoWriter streams a Trace Event JSON object one event at a time,
// never materializing the array. Errors are sticky.
type perfettoWriter struct {
	w     *bufio.Writer
	first bool
	err   error
}

func (pw *perfettoWriter) emit(e traceEvent) {
	if pw.err != nil {
		return
	}
	if !pw.first {
		if pw.err = pw.w.WriteByte(','); pw.err != nil {
			return
		}
		pw.err = pw.w.WriteByte('\n')
	}
	pw.first = false
	if pw.err != nil {
		return
	}
	raw, err := json.Marshal(e) // map keys marshal sorted: deterministic
	if err != nil {
		pw.err = err
		return
	}
	_, pw.err = pw.w.Write(raw)
}

// peSlotState tracks one PE's handler slots during export: which slots
// are occupied by an in-flight nonblock send, and the FIFO of pending
// sends per destination used to match progress records to their start.
type peSlotState struct {
	pending       map[int][]pendingSend // dstPE -> FIFO of in-flight sends
	slotBusy      []bool                // slot i busy (tid = i+1)
	named         []bool                // thread_name already emitted for slot
	outstanding   int
	bytesInFlight int64
	lastTS        float64
}

type pendingSend struct {
	ts    float64
	bytes int
	slot  int
}

func (st *peSlotState) allocSlot() int {
	for i, busy := range st.slotBusy {
		if !busy {
			st.slotBusy[i] = true
			return i
		}
	}
	st.slotBusy = append(st.slotBusy, true)
	return len(st.slotBusy) - 1
}

// ExportPerfetto writes the physical trace as a full-model Trace Event
// JSON object for Perfetto / chrome://tracing:
//
//   - processes are PEs (process_name "PE p (node n)"),
//   - threads are handler slots: tid 0 carries instantaneous events
//     (local sends, orphan progress), tids >= 1 carry one in-flight
//     nonblock send each as a B/E duration pair - a send opens the
//     lowest free slot, the FIFO-matched progress record closes it,
//   - a per-PE "backlog" counter tracks the outstanding nonblock sends
//     and their bytes in flight,
//   - a leading clock_domain metadata event declares the timestamp
//     domain for the whole stream (never mixed per record).
//
// Events are streamed to w one record at a time; memory stays O(PEs +
// in-flight sends) regardless of trace size. The event order is fully
// deterministic, so golden tests can diff the output byte for byte.
func (s *Set) ExportPerfetto(w io.Writer) error {
	perNode := s.PEsPerNode
	if perNode <= 0 {
		perNode = 1
	}
	domain := physicalClockDomain(s)
	bw := bufio.NewWriterSize(w, 1<<16)
	pw := &perfettoWriter{w: bw, first: true}
	if _, err := bw.WriteString(`{"traceEvents":[` + "\n"); err != nil {
		return fmt.Errorf("trace: exporting perfetto: %w", err)
	}
	pw.emit(traceEvent{Name: "clock_domain", Phase: "M", Args: clockDomainArgs(domain)})

	var seq int64
	for pe := 0; pe < s.NumPEs; pe++ {
		recs := s.Physical[pe]
		if len(recs) == 0 {
			continue
		}
		pw.emit(traceEvent{
			Name: "process_name", Phase: "M", PID: pe,
			Args: map[string]any{"name": fmt.Sprintf("PE %d (node %d)", pe, pe/perNode)},
		})
		pw.emit(traceEvent{
			Name: "process_sort_index", Phase: "M", PID: pe,
			Args: map[string]any{"sort_index": pe},
		})
		pw.emit(traceEvent{
			Name: "thread_name", Phase: "M", PID: pe, TID: 0,
			Args: map[string]any{"name": "instant"},
		})
		st := &peSlotState{pending: make(map[int][]pendingSend)}
		for _, r := range recs {
			// Virtual-clock cycles become microseconds; the sequence
			// domain is the global record index.
			ts := float64(seq)
			if domain == DomainCycles {
				ts = float64(tsc.ToDuration(r.Cycles).Microseconds())
			}
			seq++
			st.lastTS = ts
			switch r.Kind {
			case conveyor.LocalSend:
				pw.emit(traceEvent{
					Name: "local_send", Cat: "conveyor", Phase: "i", TS: ts,
					PID: pe, TID: 0, Scope: "t",
					Args: map[string]any{"buf_bytes": r.BufBytes, "src_pe": r.SrcPE, "dst_pe": r.DstPE},
				})
			case conveyor.NonblockSend:
				slot := st.allocSlot()
				tid := slot + 1
				if slot >= len(st.named) {
					st.named = append(st.named, false)
				}
				if !st.named[slot] {
					st.named[slot] = true
					pw.emit(traceEvent{
						Name: "thread_name", Phase: "M", PID: pe, TID: tid,
						Args: map[string]any{"name": fmt.Sprintf("slot %d", slot)},
					})
				}
				st.pending[r.DstPE] = append(st.pending[r.DstPE], pendingSend{ts: ts, bytes: r.BufBytes, slot: slot})
				st.outstanding++
				st.bytesInFlight += int64(r.BufBytes)
				pw.emit(traceEvent{
					Name: "nonblock_send", Cat: "conveyor", Phase: "B", TS: ts,
					PID: pe, TID: tid,
					Args: map[string]any{"buf_bytes": r.BufBytes, "src_pe": r.SrcPE, "dst_pe": r.DstPE},
				})
				emitBacklog(pw, pe, ts, st)
			case conveyor.NonblockProgress:
				fifo := st.pending[r.DstPE]
				if len(fifo) == 0 {
					pw.emit(traceEvent{
						Name: "orphan_progress", Cat: "conveyor", Phase: "i", TS: ts,
						PID: pe, TID: 0, Scope: "t",
						Args: map[string]any{"buf_bytes": r.BufBytes, "src_pe": r.SrcPE, "dst_pe": r.DstPE},
					})
					continue
				}
				p := fifo[0]
				st.pending[r.DstPE] = fifo[1:]
				st.slotBusy[p.slot] = false
				st.outstanding--
				st.bytesInFlight -= int64(p.bytes)
				pw.emit(traceEvent{
					Name: "nonblock_send", Cat: "conveyor", Phase: "E", TS: ts,
					PID: pe, TID: p.slot + 1,
					Args: map[string]any{"buf_bytes": p.bytes, "dst_pe": r.DstPE},
				})
				emitBacklog(pw, pe, ts, st)
			}
		}
		// Close sends whose progress never arrived (a run cut short):
		// the duration ends at the PE's last event, flagged unmatched.
		// Destinations are walked in sorted order so the stream stays
		// byte-deterministic for the golden tests.
		dsts := make([]int, 0, len(st.pending))
		for dst := range st.pending {
			if len(st.pending[dst]) > 0 {
				dsts = append(dsts, dst)
			}
		}
		sort.Ints(dsts)
		for _, dst := range dsts {
			for _, p := range st.pending[dst] {
				pw.emit(traceEvent{
					Name: "nonblock_send", Cat: "conveyor", Phase: "E", TS: st.lastTS,
					PID: pe, TID: p.slot + 1,
					Args: map[string]any{"buf_bytes": p.bytes, "dst_pe": dst, "unmatched": true},
				})
			}
		}
	}
	if pw.err != nil {
		return fmt.Errorf("trace: exporting perfetto: %w", pw.err)
	}
	meta, err := json.Marshal(clockDomainArgs(domain))
	if err != nil {
		return fmt.Errorf("trace: exporting perfetto: %w", err)
	}
	if _, err := fmt.Fprintf(bw, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":%s}\n", meta); err != nil {
		return fmt.Errorf("trace: exporting perfetto: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: exporting perfetto: %w", err)
	}
	return nil
}

// emitBacklog emits the per-PE backlog counter sample after a change.
func emitBacklog(pw *perfettoWriter, pe int, ts float64, st *peSlotState) {
	pw.emit(traceEvent{
		Name: "backlog", Phase: "C", TS: ts, PID: pe,
		Args: map[string]any{"outstanding": st.outstanding, "bytes_in_flight": st.bytesInFlight},
	})
}
