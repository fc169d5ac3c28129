package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// mirrorSchedule is the reference for schedule.json's codec: the shape
// encoding/json codes by reflection, events as [kind, arg] arrays.
type mirrorSchedule struct {
	Machine Machine      `json:"machine"`
	Cost    CostModel    `json:"cost"`
	PEs     []*mirrorLog `json:"pes"`
}

type mirrorLog struct {
	Skew   int64      `json:"skew,omitempty"`
	Events [][2]int64 `json:"events"`
}

func mirrorOf(s *Schedule) *mirrorSchedule {
	m := &mirrorSchedule{Machine: s.Machine, Cost: s.Cost}
	if s.PEs != nil {
		m.PEs = make([]*mirrorLog, len(s.PEs))
	}
	for i, l := range s.PEs {
		if l == nil {
			continue
		}
		m.PEs[i] = &mirrorLog{Skew: l.Skew}
		for _, e := range eventsOf(l) {
			m.PEs[i].Events = append(m.PEs[i].Events, [2]int64{int64(e.Kind), e.Arg})
		}
	}
	return m
}

// randomSchedule draws a schedule over 1-64 PEs with every event kind,
// zero and non-zero skews, logs with and without events, and args at 0,
// 1, the int64 extremes and in between.
func randomSchedule(rng *rand.Rand) *Schedule {
	pes := 1 + rng.Intn(64)
	s := &Schedule{Machine: Machine{NumPEs: pes, PEsPerNode: 1}, Cost: DefaultCostModel(), PEs: make([]*PELog, pes)}
	s.Cost.PollCycles = rng.Int63()
	args := []int64{0, 1, math.MaxInt64, math.MinInt64, -1, 9, 10, 99, 100}
	for i := range s.PEs {
		var skew int64
		if rng.Intn(2) == 0 {
			skew = rng.Int63n(200) - 50
		}
		var evs []Event
		if rng.Intn(8) > 1 {
			evs = make([]Event, rng.Intn(100))
			for j := range evs {
				evs[j].Kind = EventKind(rng.Intn(int(NumEventKinds)))
				if rng.Intn(2) == 0 {
					evs[j].Arg = args[rng.Intn(len(args))]
				} else {
					evs[j].Arg = rng.Int63() >> rng.Intn(63)
				}
			}
		}
		s.PEs[i] = NewPELog(skew, evs...)
	}
	return s
}

// spaced inserts JSON whitespace after every structural character of a
// compact document (whose strings hold none of them).
func spaced(rng *rand.Rand, doc []byte) []byte {
	var out []byte
	for _, c := range doc {
		out = append(out, c)
		if strings.IndexByte("{}[],:", c) >= 0 {
			for n := rng.Intn(3); n > 0; n-- {
				out = append(out, " \t\n\r"[rng.Intn(4)])
			}
		}
	}
	return out
}

func encode(t testing.TB, s *Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// TestScheduleCodecMatchesEncodingJSON: the codec writes the bytes
// encoding/json writes for the mirror type and reads them back to the
// schedule it wrote, also spaced out, with its keys in another order and
// with unknown keys added at every level.
func TestScheduleCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cases := []*Schedule{
		{Machine: Machine{NumPEs: 1, PEsPerNode: 1}, Cost: DefaultCostModel()},
		{Machine: Machine{NumPEs: 1, PEsPerNode: 1}, Cost: DefaultCostModel(), PEs: []*PELog{}},
		{Machine: Machine{NumPEs: 2, PEsPerNode: 1}, Cost: DefaultCostModel(), PEs: []*PELog{nil, {Skew: 3}}},
	}
	for i := 0; i < 100; i++ {
		cases = append(cases, randomSchedule(rng))
	}
	for i, s := range cases {
		got := encode(t, s)
		want, err := json.Marshal(mirrorOf(s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: codec bytes differ from encoding/json's:\n got %.200s\nwant %.200s", i, got, want)
		}
		if viaMarshal, err := json.Marshal(s); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("case %d: json.Marshal(*Schedule) no longer writes the codec's bytes (%v)", i, err)
		}
		machine, _ := json.Marshal(s.Machine)
		cost, _ := json.Marshal(s.Cost)
		pes := got[bytes.Index(got, []byte(`,"pes":`))+len(`,"pes":`) : len(got)-1]
		unknown := strings.NewReplacer(`{"machine":`, `{"zz":{"a":[1,-2.5e3,"s\"q\u00e9",true,false,null,{}]},"machine":`,
			`{"events":`, `{"timing":0,"events":`, `{"skew":`, `{"x":[[]],"skew":`)
		for j, doc := range [][]byte{
			got,
			spaced(rng, got),
			[]byte(`{"pes":` + string(pes) + `,"cost":` + string(cost) + `,"timing":0,"machine":` + string(machine) + `}`),
			[]byte(unknown.Replace(string(got))),
		} {
			back, err := ParseSchedule(doc)
			if err != nil {
				t.Fatalf("case %d doc %d: %v", i, j, err)
			}
			if !reflect.DeepEqual(back, s) {
				t.Fatalf("case %d doc %d: read back a different schedule", i, j)
			}
		}
	}
}

// TestParseScheduleRejects: what the reader refuses, each case one edit
// away from a good document.
func TestParseScheduleRejects(t *testing.T) {
	const good = `{"machine":{"NumPEs":1,"PEsPerNode":1},"cost":{"NetworkLatency":5},"pes":[{"skew":2,"events":[[0,1],[7,0]]}]}`
	if _, err := ParseSchedule([]byte(good)); err != nil {
		t.Fatalf("good document rejected: %v", err)
	}
	for _, edit := range [][2]string{
		{`[7,0]`, `[14,0]`},  // kind out of range
		{`[7,0]`, `[-1,0]`},  // so too
		{`[7,0]`, `[7,0,1]`}, // not a pair
		{`[7,0]`, `[7]`},     // not a pair
		{`[7,0]`, `null`},    // not a pair
		{`[0,1]`, `[0,1.5]`}, // a float
		{`[0,1]`, `[0,1e3]`}, // an exponent
		{`[0,1]`, `[0,01]`},  // a leading zero
		{`[0,1]`, `[0,9223372036854775808]`},
		{`"skew":2`, `"skew":"2"`},
		{`{"skew"`, `{null:1,"skew"`},
		{`[[0,1]`, `[[0,1],]`},
		{`"pes":[`, `"x":"\q","pes":[`}, // bad escape in a skipped key's value
		{`"pes":[`, `"x":tru,"pes":[`},
		{`"pes":[`, "\"x\":\"a\x01\",\"pes\":["},
		{`]}]}`, `]}]}x`}, // data after the document
		{`]}]}`, `]}]`},   // torn
	} {
		bad := strings.Replace(good, edit[0], edit[1], 1)
		if bad == good {
			t.Fatalf("edit %q did not apply", edit)
		}
		if _, err := ParseSchedule([]byte(bad)); err == nil {
			t.Errorf("ParseSchedule accepted %s", bad)
		}
	}
}

// FuzzReadScheduleFile fuzzes what whatif.ReadScheduleFile does with a
// schedule.json's bytes: no input panics the reader or Validate, and
// whatever ParseSchedule accepts, written back by WriteJSON, reads back
// the same.
func FuzzReadScheduleFile(f *testing.F) {
	const machine, cost = `{"machine":{"NumPEs":2,"PEsPerNode":1},`,
		`"cost":{"NetworkLatency":5,"NetworkPerByte":0,"QuietLatency":0,"SignalLatency":0,"LocalCopyLatency":0,` +
			`"LocalCopyPerByte":0,"InstructionCycles":1,"InstructionScale":2,"PollCycles":0,"ItemIngestCycles":0},`
	golden := machine + cost + `"pes":[{"events":[[0,128],[12,12884902146],[7,0]]},{"skew":25,"events":[[7,0]]}]}`
	unmerged := `{"machine":{"NumPEs":1,"PEsPerNode":1},` + cost +
		`"pes":[{"events":[[8,0],[3,53],[3,53],[3,8589934645],[3,53],[9,0]]}]}`
	for _, seed := range []string{
		golden,
		unmerged,
		machine + `"timing":0,` + cost + `"pes":[{"events":[[7,0]]},{"events":[[7,0]]}]}`,
		golden[:len(golden)/2],
		golden[:len(golden)-3],
		strings.Replace(golden, `[7,0]`, `[14,0]`, 1),
		strings.Replace(golden, `[7,0]`, `[7,0,0]`, 1),
		strings.Replace(golden, `[0,128]`, `[0,128.5]`, 1),
		strings.Replace(golden, `[0,128]`, `[0,9223372036854775808]`, 1),
		golden + `{}`,
		" \n" + strings.ReplaceAll(golden, ",", " ,\t") + "\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSchedule(data)
		if err != nil {
			return
		}
		_ = s.Validate()
		if again, err := ParseSchedule(encode(t, s)); err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("a parsed schedule did not survive a write and a read (%v): %q", err, data)
		}
	})
}
