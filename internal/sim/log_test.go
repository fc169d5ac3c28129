package sim

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"actorprof/internal/blocks"
)

// refLog is the recorder a schedule had before its logs were sealed as
// blocks: Append merged instruction runs into a plain slice of events.
// The sealed recorder must read back as it.
type refLog struct{ pending []Event }

func (l *refLog) Append(kind EventKind, arg int64) {
	if n := len(l.pending); kind == EvInstr && n > 0 && l.pending[n-1].Kind == EvInstr && l.pending[n-1].Arg >= 0 && arg >= 0 {
		last := &l.pending[n-1]
		ins, n := InstrRunParts(last.Arg)
		if more, m := InstrRunParts(arg); more == ins && n+m <= math.MaxInt32 {
			last.Arg = (n+m)<<32 | ins
			return
		}
	}
	l.pending = append(l.pending, Event{Kind: kind, Arg: arg})
}

// TestSealedRecorderMatchesReference: for seeded event sequences - every
// kind, instruction charges and runs that merge, runs at the run-length
// limit, and merges that straddle rows 1023/1024/1025 and 2047/2048 - the
// sealed recorder's log reads back through its walk as the reference's.
func TestSealedRecorderMatchesReference(t *testing.T) {
	straddle := []int{blocks.Len - 1, blocks.Len, blocks.Len + 1, 2*blocks.Len - 1, 2 * blocks.Len}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec := NewScheduleRecorder(Machine{NumPEs: 1, PEsPerNode: 1}, DefaultCostModel())
		var ref refLog
		add := func(kind EventKind, arg int64) {
			rec.PE(0).Append(kind, arg)
			ref.Append(kind, arg)
		}
		marker := func() { add(EvHandlerStart+EventKind(rng.Intn(2)), int64(rng.Intn(1<<20))) }
		run := func() {
			ins := []int64{7, 53}[rng.Intn(2)]
			for n := 1 + rng.Intn(6); n > 0; n-- {
				switch rng.Intn(8) {
				case 0:
					add(EvInstr, InstrRun(ins, 2+rng.Int63n(9)))
				case 1:
					add(EvInstr, InstrRun(ins, math.MaxInt32-rng.Int63n(3)))
				default:
					add(EvInstr, ins)
				}
			}
		}
		// A run opens at each straddled row: markers, which never merge,
		// fill the rows before it.
		for _, row := range straddle {
			for len(ref.pending) < row {
				marker()
			}
			run()
		}
		for i := rng.Intn(3 * blocks.Len); i > 0; i-- {
			if k := EventKind(rng.Intn(int(NumEventKinds))); k == EvInstr {
				run()
			} else {
				add(k, rng.Int63()>>rng.Intn(63))
			}
		}
		want := ref.pending
		if got := eventsOf(rec.Schedule().PEs[0]); !reflect.DeepEqual(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: the sealed log reads %d events, the reference %d; first difference at %d", seed, len(got), len(want), i)
		}
		if n := rec.Schedule().Events(); n != len(want) {
			t.Fatalf("seed %d: Events() = %d, the reference holds %d", seed, n, len(want))
		}
	}
}

// TestWalkGenStartsAtItsGeneration: a cursor opened at generation g reads
// the events after the log's g-th barrier: the cursor starts at that
// barrier's block, and its events are the ones the log was sealed from.
func TestWalkGenStartsAtItsGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var evs []Event
	for len(evs) < 5*blocks.Len {
		if rng.Intn(40) == 0 {
			for n := 1 + rng.Intn(3); n > 0; n-- { // barriers back to back, some at block edges
				evs = append(evs, Event{Kind: EvBarrier})
			}
			continue
		}
		evs = append(evs, Event{Kind: EvRaw, Arg: int64(len(evs))})
	}
	evs = append(evs, Event{Kind: EvBarrier})
	sealed, barriers := NewPELog(0, evs...), 0
	for _, e := range evs {
		if e.Kind == EvBarrier {
			barriers++
		}
	}
	if sealed.Barriers() != barriers || sealed.log.Blocks() < 5 {
		t.Fatalf("%d vs %d barriers in %d blocks", sealed.Barriers(), barriers, sealed.log.Blocks())
	}
	read := func(c Cursor) []Event {
		var out []Event
		for b := c.Next(); b != nil; b = c.Next() {
			out = append(out, b...)
		}
		return out
	}
	for g, at := 0, 0; g <= sealed.Barriers(); g++ {
		want := evs[at:]
		if got := read(sealed.WalkGen(g, new(Block))); !slices.Equal(got, want) {
			t.Fatalf("generation %d: the sealed log's cursor reads %d events, want %d", g, len(got), len(want))
		}
		for at < len(evs) && evs[at].Kind != EvBarrier {
			at++
		}
		at++
	}
}

// shardOf is a log's shard as WriteShard writes it.
func shardOf(tb testing.TB, l *PELog) []byte {
	var buf bytes.Buffer
	if err := l.WriteShard(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadScheduleShard fuzzes what whatif.ReadScheduleFile does with a
// schedule shard's bytes: no input panics the reader, the walk or
// Validate; a shard it accepts is written back by WriteShard as it was
// read; and on the seeds - shards of logs written by hand, torn, or with
// hostile row and column counts - it reads the events the log was written
// with, or refuses what is not a shard.
func FuzzReadScheduleShard(f *testing.F) {
	pe0 := []Event{{EvNetworkPut, 128}, {EvHandlerStart, BatchActorID(1, 2, 3)}, {EvBarrier, 0}, {EvInstr, InstrRun(53, 2)}, {EvRaw, -5}, {EvHandlerEnd, 0}}
	pe1 := []Event{{EvBarrier, 0}}
	rng := rand.New(rand.NewSource(7))
	long := make([]Event, 3*blocks.Len+5)
	for i := range long {
		long[i] = Event{Kind: EventKind(rng.Intn(int(NumEventKinds))), Arg: rng.Int63() >> rng.Intn(63)}
	}
	want := map[string][]Event{} // a seed's events as written; nil when it is no shard
	add := func(data []byte, evs []Event) {
		f.Add(data)
		want[string(data)] = evs
	}
	for _, evs := range [][]Event{pe0, pe1, long, {}} {
		shard := shardOf(f, NewPELog(0, evs...))
		add(shard, evs)
		if len(evs) > 0 { // torn tails, read as an error or as the blocks before the tear
			f.Add(shard[:len(shard)-1])
			f.Add(shard[:len(shard)-3])
			f.Add(shard[:len(shard)/2])
		}
	}
	hdr := blocks.AppendHeader(nil, ScheduleKind, 2)
	add(binary.AppendUvarint(slices.Clone(hdr), blocks.Len+1), nil)      // more rows than a block holds
	add(binary.AppendUvarint(slices.Clone(hdr), blocks.MaxRows+1), nil)  // more than any block may claim
	add(append(blocks.AppendHeader(nil, ScheduleKind, 1000), 1, 0), nil) // hostile column count
	add(append(blocks.AppendHeader(nil, ScheduleKind, 1), 1, 0), nil)
	add(append(blocks.AppendHeader(nil, 3, 2), 1, 0, 0), nil) // another kind's file
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadShard(data, new(Block))
		if evs, seed := want[string(data)]; seed && (err != nil) != (evs == nil) {
			t.Fatalf("seed read with error %v, want an error: %v", err, evs == nil)
		} else if seed && evs != nil && !slices.Equal(eventsOf(l), evs) {
			t.Fatalf("seed shard reads %v, its JSON %v", eventsOf(l), evs)
		}
		if err != nil {
			return
		}
		_, _ = l.check(0)
		got := eventsOf(l)
		if len(got) != l.log.Len() {
			t.Fatalf("the walk read %d of the shard's %d events", len(got), l.log.Len())
		}
		if _, p, _ := blocks.Header(data, ScheduleKind); !bytes.Equal(shardOf(t, l)[len(hdr):], data[p:]) {
			t.Fatal("WriteShard did not write back the blocks it read")
		}
	})
}
