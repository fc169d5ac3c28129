package conveyor

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

func cfg(npes, perNode int) shmem.Config {
	return shmem.Config{Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode}}
}

// exchange runs a complete conveyor session on every PE: each PE pushes
// the given (value, dst) pairs, then drains until completion, recording
// every item it received. Returns received values and sources per PE.
func exchange(t *testing.T, npes, perNode int, opts Options,
	sends func(pe int) (vals []int64, dsts []int)) (recvVals [][]int64, recvSrcs [][]int, stats []Stats) {
	t.Helper()
	recvVals = make([][]int64, npes)
	recvSrcs = make([][]int, npes)
	stats = make([]Stats, npes)
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		c, err := New(pe, opts)
		if err != nil {
			panic(err)
		}
		vals, dsts := sends(pe.Rank())
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
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf, uint64(v))
			for !c.Push(buf, dsts[i]) {
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
		stats[pe.Rank()] = c.Stats()
		mu.Unlock()
		pe.Barrier()
	})
	if err != nil {
		t.Fatalf("exchange run failed: %v", err)
	}
	return recvVals, recvSrcs, stats
}

func TestNewValidatesOptions(t *testing.T) {
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		if _, err := New(pe, Options{ItemBytes: 0}); err == nil {
			panic("expected error for zero ItemBytes")
		}
		pe.Barrier()
		if _, err := New(pe, Options{ItemBytes: 8, BufferItems: -1}); err == nil {
			panic("expected error for negative BufferItems")
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveOptionMismatchDetected(t *testing.T) {
	// PEs constructing a conveyor with different buffer sizes must all
	// get an error instead of silently corrupting the symmetric layout.
	errs := make([]error, 2)
	var mu sync.Mutex
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		items := 8
		if pe.Rank() == 1 {
			items = 16
		}
		_, err := New(pe, Options{ItemBytes: 8, BufferItems: items})
		mu.Lock()
		errs[pe.Rank()] = err
		mu.Unlock()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, e := range errs {
		if e == nil {
			t.Errorf("PE %d did not detect the option mismatch", pe)
		}
	}
}

func TestAllToAllSingleNode(t *testing.T) {
	const npes = 8
	vals, srcs, stats := exchange(t, npes, npes, Options{ItemBytes: 8, BufferItems: 4},
		func(pe int) ([]int64, []int) {
			var v []int64
			var d []int
			for dst := 0; dst < npes; dst++ {
				v = append(v, int64(pe*100+dst))
				d = append(d, dst)
			}
			return v, d
		})
	for pe := 0; pe < npes; pe++ {
		if len(vals[pe]) != npes {
			t.Fatalf("PE %d received %d items, want %d", pe, len(vals[pe]), npes)
		}
		seen := map[int64]int{}
		for i, v := range vals[pe] {
			seen[v] = srcs[pe][i]
		}
		for src := 0; src < npes; src++ {
			want := int64(src*100 + pe)
			if gotSrc, ok := seen[want]; !ok {
				t.Errorf("PE %d missing value %d from PE %d", pe, want, src)
			} else if gotSrc != src {
				t.Errorf("PE %d value %d: source = %d, want %d", pe, want, gotSrc, src)
			}
		}
	}
	// Single node: every transfer must be a local_send.
	for pe, s := range stats {
		if s.RemoteBuffers != 0 || s.Quiets != 0 {
			t.Errorf("PE %d: remote buffers on a single node: %+v", pe, s)
		}
		if s.LocalBuffers == 0 {
			t.Errorf("PE %d: no local buffers moved", pe)
		}
	}
}

func TestAllToAllMesh(t *testing.T) {
	const npes, perNode = 8, 4
	vals, srcs, stats := exchange(t, npes, perNode, Options{ItemBytes: 8, BufferItems: 4},
		func(pe int) ([]int64, []int) {
			var v []int64
			var d []int
			for dst := 0; dst < npes; dst++ {
				for rep := 0; rep < 3; rep++ {
					v = append(v, int64(pe*1000+dst*10+rep))
					d = append(d, dst)
				}
			}
			return v, d
		})
	for pe := 0; pe < npes; pe++ {
		if len(vals[pe]) != npes*3 {
			t.Fatalf("PE %d received %d items, want %d", pe, len(vals[pe]), npes*3)
		}
		for i, v := range vals[pe] {
			wantSrc := int(v / 1000)
			if srcs[pe][i] != wantSrc {
				t.Errorf("PE %d item %d: src %d, want %d", pe, v, srcs[pe][i], wantSrc)
			}
			if int(v/10)%100 != pe {
				t.Errorf("PE %d received item %d destined for PE %d", pe, v, int(v/10)%100)
			}
		}
	}
	anyRemote := false
	for _, s := range stats {
		if s.RemoteBuffers > 0 {
			anyRemote = true
			if s.Quiets != s.RemoteBuffers {
				t.Errorf("quiets (%d) != remote buffers (%d)", s.Quiets, s.RemoteBuffers)
			}
		}
	}
	if !anyRemote {
		t.Error("two-node run produced no nonblock_send transfers")
	}
}

func TestSelfSendTakesFullPath(t *testing.T) {
	// Paper Section IV-D: self-sends are not bypassed; they ride the
	// aggregation buffers like any other item.
	vals, _, stats := exchange(t, 2, 2, Options{ItemBytes: 8, BufferItems: 4},
		func(pe int) ([]int64, []int) {
			return []int64{int64(pe + 500)}, []int{pe}
		})
	for pe := 0; pe < 2; pe++ {
		if len(vals[pe]) != 1 || vals[pe][0] != int64(pe+500) {
			t.Fatalf("PE %d self-send result: %v", pe, vals[pe])
		}
		if stats[pe].LocalBuffers == 0 {
			t.Errorf("PE %d: self-send bypassed the buffer path", pe)
		}
	}
}

func TestMeshRouting(t *testing.T) {
	// On 2 nodes x 2 PEs, PE 0 (node 0, lrank 0) sending to PE 3
	// (node 1, lrank 1) must route via PE 1 (node 0, lrank 1).
	vals, _, stats := exchange(t, 4, 2, Options{ItemBytes: 8, BufferItems: 2},
		func(pe int) ([]int64, []int) {
			if pe == 0 {
				return []int64{77}, []int{3}
			}
			return nil, nil
		})
	if len(vals[3]) != 1 || vals[3][0] != 77 {
		t.Fatalf("PE 3 received %v, want [77]", vals[3])
	}
	if stats[1].Routed != 1 {
		t.Errorf("PE 1 routed %d items, want 1 (it is the mesh intermediate)", stats[1].Routed)
	}
	if stats[1].RemoteBuffers == 0 {
		t.Error("intermediate PE 1 should forward via nonblock_send")
	}
}

func TestPhysicalCallbackClassification(t *testing.T) {
	type ev struct {
		kind     SendKind
		src, dst int
	}
	perPE := make([][]ev, 4)
	var mu sync.Mutex
	err := shmem.Run(cfg(4, 2), func(pe *shmem.PE) {
		me := pe.Rank()
		c, err := New(pe, Options{ItemBytes: 8, BufferItems: 2,
			OnPhysical: func(kind SendKind, bufBytes, src, dst int) {
				if bufBytes <= 0 {
					panic(fmt.Sprintf("physical event with %d bytes", bufBytes))
				}
				mu.Lock()
				perPE[me] = append(perPE[me], ev{kind, src, dst})
				mu.Unlock()
			}})
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 8)
		for dst := 0; dst < 4; dst++ {
			for !c.Push(buf, dst) {
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
	m := sim.Machine{NumPEs: 4, PEsPerNode: 2}
	for pe, evs := range perPE {
		if len(evs) == 0 {
			t.Errorf("PE %d emitted no physical events", pe)
		}
		for _, e := range evs {
			if e.src != pe {
				t.Errorf("PE %d emitted event with src %d", pe, e.src)
			}
			sameNode := m.SameNode(e.src, e.dst)
			switch e.kind {
			case LocalSend:
				if !sameNode {
					t.Errorf("local_send across nodes: %d->%d", e.src, e.dst)
				}
			case NonblockSend, NonblockProgress:
				if sameNode {
					t.Errorf("%v within a node: %d->%d", e.kind, e.src, e.dst)
				}
			}
		}
	}
}

func TestPushAfterDonePanics(t *testing.T) {
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		c, _ := New(pe, Options{ItemBytes: 8})
		for c.Advance(true) {
		}
		defer func() {
			if recover() == nil {
				panic("Push after done should panic")
			}
			pe.Barrier()
		}()
		c.Push(make([]byte, 8), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPerPairOrdering verifies the ordering guarantee the paper's
// Section IV-E describes: Conveyors preserves order only per (source,
// destination) pair. Items from one PE to one PE must arrive in push
// order - across every topology, including multi-hop routes.
func TestPerPairOrdering(t *testing.T) {
	for _, tc := range []struct {
		name          string
		npes, perNode int
		topo          Topology
	}{
		{"linear", 8, 8, TopologyAuto},
		{"mesh", 8, 4, TopologyAuto},
		{"cube", 16, 4, TopologyCube},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const per = 300
			err := shmem.Run(cfg(tc.npes, tc.perNode), func(pe *shmem.PE) {
				c, err := New(pe, Options{ItemBytes: 8, BufferItems: 4, Topology: tc.topo})
				if err != nil {
					panic(err)
				}
				lastFrom := make([]int64, tc.npes)
				for i := range lastFrom {
					lastFrom[i] = -1
				}
				drain := func() {
					for {
						item, src, ok := c.Pull()
						if !ok {
							return
						}
						seq := int64(binary.LittleEndian.Uint64(item))
						if seq <= lastFrom[src] {
							panic(fmt.Sprintf("PE %d: out-of-order item %d after %d from PE %d",
								pe.Rank(), seq, lastFrom[src], src))
						}
						lastFrom[src] = seq
					}
				}
				buf := make([]byte, 8)
				dst := (pe.Rank() + tc.npes/2 + 1) % tc.npes
				for i := 0; i < per; i++ {
					binary.LittleEndian.PutUint64(buf, uint64(i+1))
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
				t.Fatal(err)
			}
		})
	}
}

func TestHighVolumeAggregation(t *testing.T) {
	// Push far more items than buffer capacity to force many transfers
	// and the full double-buffering machinery, across nodes.
	const npes, perNode, per = 8, 4, 500
	counts := make([]int, npes)
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		c, err := New(pe, Options{ItemBytes: 8, BufferItems: 16})
		if err != nil {
			panic(err)
		}
		recv := 0
		drain := func() {
			for {
				if _, _, ok := c.Pull(); !ok {
					break
				}
				recv++
			}
		}
		buf := make([]byte, 8)
		rng := uint64(pe.Rank()*2654435761 + 12345)
		for i := 0; i < per; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			dst := int(rng>>33) % npes
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
		counts[pe.Rank()] = recv
		mu.Unlock()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != npes*per {
		t.Fatalf("delivered %d items, want %d", total, npes*per)
	}
}

func TestPeerOnlyScanDeliversEverything64PE(t *testing.T) {
	// 64 PEs x 4 per node is a 4 x 4 node cube: each PE has 10 peers but
	// 64 landing zones. Every PE sends a distinct value to every PE, so
	// the multiset each PE must receive is known exactly; an inbound
	// channel the peer-only receive scan skipped would lose its items
	// (and the run would never terminate).
	const npes, perNode, reps = 64, 4, 3
	vals, srcs, stats := exchange(t, npes, perNode, Options{ItemBytes: 8, BufferItems: 8},
		func(pe int) ([]int64, []int) {
			var v []int64
			var d []int
			for rep := 0; rep < reps; rep++ {
				for off := 0; off < npes; off++ {
					dst := (pe + off) % npes
					v = append(v, int64((pe*npes+dst)*reps+rep))
					d = append(d, dst)
				}
			}
			return v, d
		})
	var routed int64
	for pe := 0; pe < npes; pe++ {
		got := make(map[int64]int, len(vals[pe]))
		for i, v := range vals[pe] {
			got[v]++
			if want := int(v/reps) / npes; srcs[pe][i] != want {
				t.Fatalf("PE %d: item %d reports source %d, want %d", pe, v, srcs[pe][i], want)
			}
		}
		for src := 0; src < npes; src++ {
			for rep := 0; rep < reps; rep++ {
				v := int64((src*npes+pe)*reps + rep)
				if got[v] != 1 {
					t.Fatalf("PE %d received item %d (from PE %d) %d times, want once", pe, v, src, got[v])
				}
			}
		}
		if len(vals[pe]) != npes*reps {
			t.Fatalf("PE %d received %d items, want %d", pe, len(vals[pe]), npes*reps)
		}
		routed += stats[pe].Routed
	}
	if routed == 0 {
		t.Error("no item took an intermediate hop: the run did not exercise cube routing")
	}
}

func TestPushAfterIdleSweepKeepsThePEAwake(t *testing.T) {
	// Regression (jaccard under the tiny-buffers chaos plan): an outer
	// Send retry loop swept, failed its push, and ran handlers whose
	// nested Sends shipped the very buffer it was waiting on, swept once
	// more (idle) and pushed; back in the outer loop every sweep on
	// record was idle at the current epoch, so it slept - with room in
	// its buffer and nobody left to ring. A successful push must withdraw
	// the last sweep's claim. If it does not, PE 0 below sleeps forever:
	// nothing PE 1 does writes into PE 0's heap or settles the board.
	done := make(chan error, 1)
	go func() {
		done <- shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
			c, err := New(pe, Options{ItemBytes: 8, BufferItems: 4})
			if err != nil {
				panic(err)
			}
			if pe.Rank() == 0 {
				c.Advance(false) // nothing to do: an idle sweep
				if !c.Push(make([]byte, 8), 1) {
					panic("push into an empty buffer failed")
				}
				if pe.WaitIdle() {
					panic("slept although a push followed the last sweep")
				}
			}
			for c.Advance(true) {
				c.Pull()
			}
			pe.Barrier()
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("PE 0 sleeps on a stale idle claim")
	}
}
