package sim

import (
	"encoding/json"
	"io"
	"strconv"
)

// schedule.json's writer (DESIGN.md §14): events are coded by hand, the
// rest goes through encoding/json, whose bytes it keeps. The form is an
// export only; nothing reads it back.

// writeChunk is how many bytes WriteJSON gathers per Write.
const writeChunk = 64 << 10

// WriteJSON writes the schedule to w as schedule.json, the export
// (`actorprof export -schedule`): the bytes encoding/json writes for
// {"machine", "cost", "pes": [{"skew", "events"}]}, skew omitted when 0
// and each event a compact [kind, arg] pair, then a newline, as
// json.Encoder does. A log's events are read through its walk.
func (s *Schedule) WriteJSON(w io.Writer) error {
	head, err := json.Marshal(struct {
		Machine Machine   `json:"machine"`
		Cost    CostModel `json:"cost"`
	}{s.Machine, s.Cost})
	if err != nil {
		return err
	}
	b := append(append(make([]byte, 0, writeChunk+64), head[:len(head)-1]...), `,"pes":`...)
	if s.PEs == nil {
		b = append(b, "null"...)
	} else {
		var blk *Block
		b = append(b, '[')
		for i, l := range s.PEs {
			if i > 0 {
				b = append(b, ',')
			}
			if l == nil {
				b = append(b, "null"...)
				continue
			}
			if b = append(b, '{'); l.Skew != 0 {
				b = append(strconv.AppendInt(append(b, `"skew":`...), l.Skew, 10), ',')
			}
			if b = append(b, `"events":`...); l.log.Len() == 0 {
				b = append(b, "null}"...)
				continue
			}
			if blk == nil {
				blk = new(Block)
			}
			b = append(b, '[')
			c, sep := l.Walk(blk), false
			for evs := c.Next(); evs != nil; evs = c.Next() {
				for _, e := range evs {
					if sep {
						b = append(b, ',')
					}
					if b, sep = appendEvent(b, e), true; len(b) >= writeChunk {
						if _, err := w.Write(b); err != nil {
							return err
						}
						b = b[:0]
					}
				}
			}
			b = append(b, "]}"...)
		}
		b = append(b, ']')
	}
	_, err = w.Write(append(b, "}\n"...))
	return err
}

// appendEvent appends an event as its [kind, arg] pair.
func appendEvent(b []byte, e Event) []byte {
	b = append(strconv.AppendUint(append(b, '['), uint64(e.Kind), 10), ',')
	return append(strconv.AppendInt(b, e.Arg, 10), ']')
}
