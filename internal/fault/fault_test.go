package fault

import (
	"strings"
	"testing"
)

func TestSiteClassification(t *testing.T) {
	det := []Site{SitePutNBI, SiteQuiet, SiteBarrier, SiteTransfer, SiteBufferCap}
	sched := []Site{SiteAdvance, SiteYield, SiteHandler}
	if len(det)+len(sched) != NumSites {
		t.Fatalf("site list out of date: %d+%d sites, NumSites=%d", len(det), len(sched), NumSites)
	}
	for s := Site(0); int(s) < NumSites; s++ {
		if strings.Contains(s.String(), "?") {
			t.Errorf("site %d has no name", s)
		}
	}
}

func TestPlanDecideIsPure(t *testing.T) {
	p, err := NamedPlan("chaos", 0xdeadbeef)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 4; pe++ {
		for s := Site(0); int(s) < NumSites; s++ {
			for idx := int64(0); idx < 50; idx++ {
				pt := Point{PE: pe, Site: s, Index: idx, Arg: idx % 7, Arg2: idx * 3}
				if a, b := p.Decide(pt), p.Decide(pt); a != b {
					t.Fatalf("Decide(%+v) not pure: %+v vs %+v", pt, a, b)
				}
			}
		}
	}
}

func TestPlanScheduleSitesNeverTouchVirtualState(t *testing.T) {
	for _, name := range PlanNames() {
		p, err := NamedPlan(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Site{SiteAdvance, SiteYield, SiteHandler} {
			for idx := int64(0); idx < 200; idx++ {
				d := p.Decide(Point{PE: 1, Site: s, Index: idx})
				if d.DelayCycles != 0 || d.Capacity != 0 {
					t.Fatalf("plan %s decided %+v at schedule-only site %s", name, d, s)
				}
			}
		}
	}
}

func TestPlanCapacityStaysInRange(t *testing.T) {
	p, err := NamedPlan("tiny-buffers", 99)
	if err != nil {
		t.Fatal(err)
	}
	const base = 64
	shrunk := false
	for idx := int64(0); idx < 300; idx++ {
		d := p.Decide(Point{PE: 0, Site: SiteBufferCap, Index: idx, Arg: 1, Arg2: base})
		if d.Capacity != 0 {
			if d.Capacity < p.CapFloor || d.Capacity > base {
				t.Fatalf("capacity %d outside [%d, %d]", d.Capacity, p.CapFloor, base)
			}
			if d.Capacity < base {
				shrunk = true
			}
		}
	}
	if !shrunk {
		t.Fatal("tiny-buffers never shrank a capacity in 300 generations")
	}
}

func TestPlanSeedChangesDecisions(t *testing.T) {
	a, _ := NamedPlan("chaos", 1)
	b, _ := NamedPlan("chaos", 2)
	differ := false
	for idx := int64(0); idx < 100 && !differ; idx++ {
		pt := Point{PE: 0, Site: SiteBarrier, Index: idx}
		if a.Decide(pt) != b.Decide(pt) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("seeds 1 and 2 made identical barrier decisions for 100 points")
	}
}

func TestClockSkewPercentBounds(t *testing.T) {
	p, _ := NamedPlan("stragglers", 0x5eed)
	anySkew := false
	for pe := 0; pe < 64; pe++ {
		s := p.ClockSkewPercent(pe)
		if s < 0 || s > p.SkewMaxPercent {
			t.Fatalf("PE %d skew %d outside [0, %d]", pe, s, p.SkewMaxPercent)
		}
		if s > 0 {
			anySkew = true
		}
		if again := p.ClockSkewPercent(pe); again != s {
			t.Fatalf("PE %d skew not stable: %d then %d", pe, s, again)
		}
	}
	if !anySkew {
		t.Fatal("stragglers plan skewed none of 64 PEs")
	}
}

func TestNamedPlanAndPlanFromSeed(t *testing.T) {
	if _, err := NamedPlan("no-such-plan", 1); err == nil {
		t.Fatal("unknown plan name should error")
	}
	names := PlanNames()
	for _, want := range []string{"none", "stragglers", "delayed-transfers", "tiny-buffers", "yield-storm", "chaos"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("PlanNames() missing %q: %v", want, names)
		}
	}
	for seed := uint64(0); seed < 50; seed++ {
		p := PlanFromSeed(seed)
		if p.Name == "none" {
			t.Fatalf("PlanFromSeed(%d) picked the non-perturbing shape", seed)
		}
		if p.Seed != seed {
			t.Fatalf("PlanFromSeed(%d) kept seed %d", seed, p.Seed)
		}
	}
}

func TestBoundedAndChance(t *testing.T) {
	if bounded(12345, 0) != 0 {
		t.Fatal("bounded(_, 0) must be 0")
	}
	for h := uint64(0); h < 1000; h++ {
		v := bounded(mix64(h), 7)
		if v < 1 || v > 7 {
			t.Fatalf("bounded out of range: %d", v)
		}
	}
	if chance(0, 0) || chance(^uint64(0), 0) {
		t.Fatal("probability 0 fired")
	}
	if !chance(0, 1) || !chance(^uint64(0), 1) {
		t.Fatal("probability 1 did not fire")
	}
}
