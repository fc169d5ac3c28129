package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// schedule.json's one codec (DESIGN.md §14): events are coded by hand,
// the rest goes through encoding/json, whose bytes and values it keeps.

// writeChunk is how many bytes WriteJSON gathers per Write.
const writeChunk = 64 << 10

// WriteJSON writes the schedule to w as the bytes json.Marshal writes for
// it, then a newline, as json.Encoder does: schedule.json, the export
// (`actorprof export -schedule`). A log's events are read through its walk.
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
			if b = append(b, `"events":`...); l.Events == nil && l.rows+len(l.open[1]) == 0 {
				b = append(b, "null}"...)
				continue
			}
			if blk == nil && l.rows+len(l.open[1]) > 0 {
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

// MarshalJSON is WriteJSON's document, without the newline.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	err := s.WriteJSON(&buf)
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), err
}

// appendEvent appends an event as its [kind, arg] pair.
func appendEvent(b []byte, e Event) []byte {
	b = append(strconv.AppendUint(append(b, '['), uint64(e.Kind), 10), ',')
	return append(strconv.AppendInt(b, e.Arg, 10), ']')
}

// ParseSchedule reads a schedule.json document in one pass, to the
// values encoding/json would read; Validate checks them. What it accepts
// and refuses is in DESIGN.md §14.
func ParseSchedule(data []byte) (*Schedule, error) {
	d := &decoder{data: data}
	s := &Schedule{}
	err := d.object([]string{"machine", "cost", "pes"}, func(k int) error {
		switch {
		case k == 0:
			return d.decode(&s.Machine)
		case k == 1:
			return d.decode(&s.Cost)
		case !d.next('['):
			return d.decode(&s.PEs) // null, or an error
		}
		s.PEs = []*PELog{}
		return d.seq('[', ']', func() (err error) {
			var l *PELog
			if d.next('{') {
				l = &PELog{}
				err = d.object([]string{"skew", "events"}, func(k int) error {
					if k == 0 {
						return d.decode(&l.Skew)
					}
					return d.events(l)
				})
			} else {
				err = d.decode(&l)
			}
			s.PEs = append(s.PEs, l)
			return err
		})
	})
	if d.ws(); err == nil && d.i < len(d.data) {
		err = d.fail("data after the document")
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// decoder is the reader's position in a document.
type decoder struct {
	data    []byte
	i       int
	scratch []Event // a PE's events as read, before their exact-size copy
}

func (d *decoder) fail(format string, args ...any) error {
	return fmt.Errorf("sim: schedule JSON at byte %d: "+format, append([]any{d.i}, args...)...)
}

func (d *decoder) ws() {
	for d.i < len(d.data) && d.data[d.i] <= ' ' && bytes.IndexByte([]byte(" \t\n\r"), d.data[d.i]) >= 0 {
		d.i++
	}
}

// next reports whether c is the next byte after any whitespace.
func (d *decoder) next(c byte) bool {
	d.ws()
	return d.i < len(d.data) && d.data[d.i] == c
}

func (d *decoder) expect(c byte) error {
	if !d.next(c) {
		return d.fail("want %q", c)
	}
	d.i++
	return nil
}

// decode reads the next value into v with encoding/json.
func (d *decoder) decode(v any) error {
	dec := json.NewDecoder(bytes.NewReader(d.data[d.i:]))
	err := dec.Decode(v)
	if d.i += int(dec.InputOffset()); err != nil {
		return d.fail("%w", err)
	}
	return nil
}

// seq reads a JSON array or object - open, elem at each element with
// commas between, close.
func (d *decoder) seq(open, close byte, elem func() error) error {
	if err := d.expect(open); err != nil || d.next(close) {
		d.i++
		return err
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.next(close) {
			d.i++
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// object reads an object, calling member(k) at the value of the key
// names[k] and skipping the value of any other key.
func (d *decoder) object(names []string, member func(k int) error) error {
	var seen uint
	return d.seq('{', '}', func() error {
		var key string
		if !d.next('"') {
			return d.fail("want a key")
		}
		if err := d.decode(&key); err != nil {
			return err
		}
		k := -1
		for j, name := range names {
			if key == name {
				k = j
			} else if bytes.EqualFold([]byte(key), []byte(name)) {
				return d.fail("key %q is not %q", key, name)
			}
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		switch {
		case k < 0:
			return d.decode(new(json.RawMessage))
		case seen&(1<<k) != 0:
			return d.fail("repeated key %q", key)
		}
		seen |= 1 << k
		return member(k)
	})
}

// events reads a PE's "events" into a slice of their exact size, copied
// from the decoder's scratch, which grows to the largest PE's once.
func (d *decoder) events(l *PELog) error {
	if !d.next('[') {
		return d.decode(&l.Events) // null, or an error
	}
	evs := d.scratch[:0]
	err := d.seq('[', ']', func() error {
		e, ok := d.pair()
		if !ok {
			var slow Event // escapes to decode: allocated here only
			if err := d.decode(&slow); err != nil {
				return err
			}
			e = slow
		}
		evs = append(evs, e)
		return nil
	})
	d.scratch, l.Events = evs, append([]Event{}, evs...)
	return err
}

// pair reads an event in the form writers write it - [kind,arg] with no
// whitespace, the kind in range and the arg of 1 to 18 digits - or reads
// nothing and reports false, leaving any other form to Event.UnmarshalJSON.
func (d *decoder) pair() (Event, bool) {
	if i := d.i; i < len(d.data) && d.data[i] == '[' {
		kind, j, ok := digits(d.data, i+1, 2)
		if ok && kind < uint64(NumEventKinds) && j < len(d.data) && d.data[j] == ',' {
			if arg, k, ok := digits(d.data, j+1, 18); ok && k < len(d.data) && d.data[k] == ']' {
				d.i = k + 1
				return Event{Kind: EventKind(kind), Arg: int64(arg)}, true
			}
		}
	}
	return Event{}, false
}

// digits reads at most max digits of a JSON integer at data[i:]: their
// value, where they end, and whether they make a number (some digits,
// no leading zero).
func digits(data []byte, i, max int) (u uint64, end int, ok bool) {
	start := i
	for ; i < len(data) && data[i]-'0' <= 9 && i-start < max; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	n := i - start
	return u, i, n > 0 && (n == 1 || data[start] != '0')
}
