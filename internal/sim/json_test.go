package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
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

func encode(t testing.TB, s *Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// TestScheduleCodecMatchesEncodingJSON: the writer writes the bytes
// encoding/json writes for the mirror type.
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
	}
}
