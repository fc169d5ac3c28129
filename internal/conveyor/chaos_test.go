package conveyor

import (
	"encoding/binary"
	"sync"
	"testing"

	"actorprof/internal/fault"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

func faultCfg(npes, perNode int, plan *fault.Plan) shmem.Config {
	return shmem.Config{Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode}, Fault: plan}
}

// TestConveyorAllToAllUnderChaos re-runs the all-to-all exchange with a
// fault injector perturbing transfers, buffer capacities, and the
// schedule: every item must still arrive exactly once, in per-pair
// order, on both topologies.
func TestConveyorAllToAllUnderChaos(t *testing.T) {
	const per = 60
	for _, tc := range []struct {
		name          string
		npes, perNode int
	}{
		{"1node", 4, 4},
		{"mesh", 8, 4},
	} {
		for _, planName := range []string{"tiny-buffers", "delayed-transfers", "chaos"} {
			plan, err := fault.NamedPlan(planName, 0xc0de^uint64(tc.npes))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(tc.name+"/"+planName, func(t *testing.T) {
				recvVals := make([][]int64, tc.npes)
				recvSrcs := make([][]int, tc.npes)
				var mu sync.Mutex
				err := shmem.Run(faultCfg(tc.npes, tc.perNode, plan), func(pe *shmem.PE) {
					c, err := New(pe, Options{ItemBytes: 8, BufferItems: 16})
					if err != nil {
						panic(err)
					}
					var myVals []int64
					var mySrcs []int
					drain := func() {
						for {
							item, src, ok := c.Pull()
							if !ok {
								break
							}
							myVals = append(myVals, int64(binary.LittleEndian.Uint64(item)))
							mySrcs = append(mySrcs, src)
						}
					}
					buf := make([]byte, 8)
					me := pe.Rank()
					for i := 0; i < per; i++ {
						dst := (me + i) % tc.npes
						binary.LittleEndian.PutUint64(buf, uint64(me*per+i))
						for !c.Push(buf, dst) {
							c.Advance(false)
							drain()
						}
					}
					for c.Advance(true) {
						drain()
					}
					drain()
					mu.Lock()
					recvVals[pe.Rank()] = myVals
					recvSrcs[pe.Rank()] = mySrcs
					mu.Unlock()
					pe.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
				// Every sent item arrives exactly once, and items from one
				// source arrive in send order (per-pair FIFO survives the
				// perturbation).
				seen := map[int64]bool{}
				lastFrom := make(map[[2]int]int64)
				total := 0
				for pe := 0; pe < tc.npes; pe++ {
					for i, v := range recvVals[pe] {
						if seen[v] {
							t.Fatalf("value %d delivered twice", v)
						}
						seen[v] = true
						src := recvSrcs[pe][i]
						key := [2]int{src, pe}
						if prev, ok := lastFrom[key]; ok && v <= prev {
							t.Fatalf("pair %d->%d order broken: %d after %d", src, pe, v, prev)
						}
						lastFrom[key] = v
						total++
					}
				}
				if total != tc.npes*per {
					t.Fatalf("delivered %d items, want %d", total, tc.npes*per)
				}
			})
		}
	}
}

// TestBufferCapConsultedOncePerGeneration pins the capacity-decision
// contract: the injector is asked exactly once per (channel, buffer
// sequence) generation, so replaying a seed reproduces the same
// capacities.
func TestBufferCapConsultedOncePerGeneration(t *testing.T) {
	counting := &countingInjector{inner: mustPlan(t, "tiny-buffers", 7)}
	err := shmem.Run(shmem.Config{
		Machine: sim.Machine{NumPEs: 2, PEsPerNode: 2},
		Fault:   counting,
	}, func(pe *shmem.PE) {
		c, err := New(pe, Options{ItemBytes: 8, BufferItems: 8})
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 8)
		for i := 0; i < 40; i++ {
			for !c.Push(buf, (pe.Rank()+i)%2) {
				c.Advance(false)
				for {
					if _, _, ok := c.Pull(); !ok {
						break
					}
				}
			}
		}
		for c.Advance(true) {
			for {
				if _, _, ok := c.Pull(); !ok {
					break
				}
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	counting.mu.Lock()
	defer counting.mu.Unlock()
	for key, n := range counting.capAsks {
		if n != 1 {
			t.Fatalf("generation %v: capacity decided %d times, want 1", key, n)
		}
	}
	if len(counting.capAsks) == 0 {
		t.Fatal("no capacity decisions observed")
	}
}

func mustPlan(t *testing.T, name string, seed uint64) *fault.Plan {
	t.Helper()
	p, err := fault.NamedPlan(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// countingInjector counts SiteBufferCap consultations per generation.
type countingInjector struct {
	inner   fault.Injector
	mu      sync.Mutex
	capAsks map[[4]int64]int
}

func (c *countingInjector) Decide(pt fault.Point) fault.Decision {
	if pt.Site == fault.SiteBufferCap {
		c.mu.Lock()
		if c.capAsks == nil {
			c.capAsks = make(map[[4]int64]int)
		}
		c.capAsks[[4]int64{int64(pt.PE), int64(pt.Site), pt.Index, pt.Arg}]++
		c.mu.Unlock()
	}
	return c.inner.Decide(pt)
}
