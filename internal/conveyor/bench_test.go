package conveyor

import (
	"encoding/binary"
	"fmt"
	"testing"

	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

// benchExchange measures aggregate conveyor throughput: every PE pushes
// msgs items at rotating destinations and drains to completion.
func benchExchange(b *testing.B, npes, perNode, bufItems int, topo Topology) {
	const msgs = 4000
	b.ReportMetric(float64(npes*msgs), "msgs/op")
	for i := 0; i < b.N; i++ {
		err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode}},
			func(pe *shmem.PE) {
				c, err := New(pe, Options{ItemBytes: 16, BufferItems: bufItems, Topology: topo})
				if err != nil {
					panic(err)
				}
				drain := func() {
					for {
						if _, _, ok := c.Pull(); !ok {
							return
						}
					}
				}
				buf := make([]byte, 16)
				for m := 0; m < msgs; m++ {
					binary.LittleEndian.PutUint64(buf, uint64(m))
					dst := (pe.Rank() + m) % npes
					for !c.Push(buf, dst) {
						c.Advance(false)
						drain()
					}
				}
				for c.Advance(true) {
					drain()
				}
				drain()
				pe.Barrier()
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExchangeLinear16PE(b *testing.B) { benchExchange(b, 16, 16, 64, TopologyAuto) }

func BenchmarkExchangeMesh32PE(b *testing.B) { benchExchange(b, 32, 16, 64, TopologyAuto) }

func BenchmarkExchangeCube64PE(b *testing.B) { benchExchange(b, 64, 4, 64, TopologyCube) }

func BenchmarkExchangeBufferSizes(b *testing.B) {
	for _, items := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			benchExchange(b, 16, 8, items, TopologyAuto)
		})
	}
}

func BenchmarkPushThroughput(b *testing.B) {
	// Sustained aggregation throughput on the zero-copy slot path: encode
	// directly into reserved slots, draining whenever the buffer fills.
	// This is the tightest loop a sender can drive the conveyor with and
	// the primary hot-path regression guard (must stay 0 allocs/op).
	err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}},
		func(pe *shmem.PE) {
			c, err := New(pe, Options{ItemBytes: 16, BufferItems: 256})
			if err != nil {
				panic(err)
			}
			drain := func() {
				for {
					if _, _, ok := c.Pull(); !ok {
						return
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for {
					slot, ok := c.PushSlot(0)
					if ok {
						binary.LittleEndian.PutUint64(slot, uint64(i))
						binary.LittleEndian.PutUint64(slot[8:], uint64(i))
						break
					}
					c.Advance(false)
					drain()
				}
			}
			for c.Advance(true) {
				drain()
			}
			drain()
		})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPushSlotCube64(b *testing.B) {
	// The balanced benchmark workload's shape: 64 PEs x 16 per node (a
	// 2 x 2 node cube), every PE pushing round-robin to all 64, so routes
	// take up to three hops and all PEs push at once. On one node the
	// next hop is the identity and nothing shared is contended; here a
	// division per push or a world-shared word per push shows. b.N counts
	// pushes over all PEs; must stay 0 allocs/op.
	const npes, perNode = 64, 16
	per := b.N/npes + 1
	b.ReportAllocs()
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		c, err := New(pe, Options{ItemBytes: 8, BufferItems: 64})
		if err != nil {
			panic(err)
		}
		drain := func() {
			for {
				if _, _, n := c.PullRun(); n == 0 {
					return
				}
			}
		}
		pe.Barrier()
		if pe.Rank() == 0 {
			b.ResetTimer()
		}
		pe.Barrier()
		dst := pe.Rank()
		for i := 0; i < per; i++ {
			if dst++; dst == npes {
				dst = 0
			}
			for {
				slot, ok := c.PushSlot(dst)
				if ok {
					binary.LittleEndian.PutUint64(slot, uint64(i))
					break
				}
				c.Advance(false)
				drain()
			}
		}
		for c.Advance(true) {
			drain()
			pe.WaitIdle()
		}
		drain()
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPushPullLocal(b *testing.B) {
	// Single-PE push/pull round trip cost (self-sends through the full
	// buffer path).
	err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}},
		func(pe *shmem.PE) {
			c, err := New(pe, Options{ItemBytes: 8, BufferItems: 64})
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !c.Push(buf, 0) {
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
		})
	if err != nil {
		b.Fatal(err)
	}
}

// ingestBuffer runs measure on PE 1 of a 2 x 2 mesh, with op the ingest
// of one full buffer of 64 8-byte items, all for PE dst: dst 1 delivers
// every item into the pull ring, dst 3 forwards every item into the
// buffer toward PE 1's column peer. op then undoes the buffer's effect so
// that the next one meets the same state. 0 allocs/op; ns/op is per
// buffer.
func ingestBuffer(tb testing.TB, dst int, measure func(op func())) {
	err := shmem.Run(cfg(4, 2), func(pe *shmem.PE) {
		c, err := New(pe, Options{ItemBytes: 8, BufferItems: 64})
		if err != nil {
			panic(err)
		}
		if pe.Rank() == 1 {
			buf := make([]byte, 64*c.wireBytes)
			for i := 0; i < 64; i++ {
				binary.LittleEndian.PutUint32(buf[i*c.wireBytes+hdrOrig:], 0)
				binary.LittleEndian.PutUint32(buf[i*c.wireBytes+hdrDst:], uint32(dst))
			}
			op := func() {
				c.ingest(buf, 64)
				if dst == 1 {
					for {
						if _, _, n := c.PullRun(); n == 0 {
							break
						}
					}
				} else {
					ob := c.outFor(dst)
					ob.items, ob.n = ob.items[:0], 0
				}
			}
			op() // grow the pull ring before measuring
			measure(op)
		}
		pe.Barrier()
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// loop is how the benchmarks time op: b.N calls after its setup, with
// allocations reported.
func loop(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
}

func BenchmarkIngestDeliver(b *testing.B) {
	ingestBuffer(b, 1, func(op func()) { loop(b, op) })
}

func BenchmarkIngestForward(b *testing.B) {
	ingestBuffer(b, 3, func(op func()) { loop(b, op) })
}
