package shmem

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"actorprof/internal/sim"
)

func machine(npes, perNode int) sim.Machine {
	return sim.Machine{NumPEs: npes, PEsPerNode: perNode}
}

func run(t *testing.T, npes, perNode int, body func(pe *PE)) {
	t.Helper()
	err := Run(Config{Machine: machine(npes, perNode)}, body)
	if err != nil {
		t.Fatalf("Run failed: %v", err)
	}
}

func TestRunLaunchesAllPEs(t *testing.T) {
	var count atomic.Int64
	seen := make([]atomic.Bool, 8)
	run(t, 8, 4, func(pe *PE) {
		count.Add(1)
		seen[pe.Rank()].Store(true)
	})
	if got := count.Load(); got != 8 {
		t.Fatalf("expected 8 PEs to run, got %d", got)
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Errorf("PE %d never ran", i)
		}
	}
}

func TestRunValidatesMachine(t *testing.T) {
	if err := Run(Config{Machine: machine(7, 4)}, func(*PE) {}); err == nil {
		t.Fatal("expected error for NumPEs not divisible by PEsPerNode")
	}
	if err := Run(Config{Machine: machine(0, 1)}, func(*PE) {}); err == nil {
		t.Fatal("expected error for zero PEs")
	}
}

func TestRunReportsPanics(t *testing.T) {
	err := Run(Config{Machine: machine(4, 4)}, func(pe *PE) {
		if pe.Rank() == 2 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "PE 2 panicked") {
		t.Fatalf("expected PE 2 panic error, got %v", err)
	}
}

func TestPanicPoisonsBarrier(t *testing.T) {
	// A PE panicking must not leave the others deadlocked in Barrier.
	err := Run(Config{Machine: machine(4, 4)}, func(pe *PE) {
		if pe.Rank() == 0 {
			panic("early exit")
		}
		pe.Barrier()
	})
	if err == nil {
		t.Fatal("expected an error from the panicking PE")
	}
	// The root-cause panic, not a secondary barrier-poisoned abort, must
	// be the error Run reports.
	if !strings.Contains(err.Error(), "PE 0 panicked") {
		t.Fatalf("expected the root-cause PE 0 panic, got %v", err)
	}
}

func TestPeerCrashUnblocksSpinLoops(t *testing.T) {
	// Regression: a crashed PE used to poison only the barrier. Peers
	// spinning in progress loops (the conveyor Advance/Quiet shape:
	// Yield between polls of a word only the dead PE would write) never
	// reach a barrier and hung forever. The world failure flag observed
	// in Yield must make them fail fast.
	done := make(chan error, 1)
	go func() {
		done <- Run(Config{Machine: machine(4, 4)}, func(pe *PE) {
			off := pe.Malloc(8)
			if pe.Rank() == 0 {
				panic("crash mid-exchange")
			}
			// Never satisfied: only PE 0 would have written this word.
			pe.WaitUntilInt64(off, CmpNe, 0)
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "PE 0 panicked") {
			t.Fatalf("expected the PE 0 panic as root cause, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung: peer crash did not unblock spin loops")
	}
}

func TestNodeTopology(t *testing.T) {
	run(t, 8, 4, func(pe *PE) {
		wantNode := pe.Rank() / 4
		if pe.Node() != wantNode {
			t.Errorf("PE %d: Node() = %d, want %d", pe.Rank(), pe.Node(), wantNode)
		}
		if !pe.SameNode(pe.Rank()) {
			t.Errorf("PE %d not on its own node", pe.Rank())
		}
		other := (pe.Rank() + 4) % 8
		if pe.SameNode(other) {
			t.Errorf("PE %d should not share a node with PE %d", pe.Rank(), other)
		}
	})
}

func TestMallocSymmetricOffsets(t *testing.T) {
	offs := make([]int, 6)
	offs2 := make([]int, 6)
	run(t, 6, 3, func(pe *PE) {
		offs[pe.Rank()] = pe.Malloc(100)
		offs2[pe.Rank()] = pe.Malloc(8)
	})
	for i := 1; i < 6; i++ {
		if offs[i] != offs[0] || offs2[i] != offs2[0] {
			t.Fatalf("symmetric offsets differ across PEs: %v / %v", offs, offs2)
		}
	}
	if offs2[0] <= offs[0] {
		t.Fatalf("second allocation (%d) must follow first (%d)", offs2[0], offs[0])
	}
	if offs2[0]-offs[0] < 100 {
		t.Fatalf("allocations overlap: first at %d (100 bytes), second at %d", offs[0], offs2[0])
	}
}

func TestBlockingPutIsImmediatelyVisible(t *testing.T) {
	run(t, 4, 2, func(pe *PE) {
		off := pe.Malloc(8)
		pe.Barrier()
		if pe.Rank() == 0 {
			for target := 0; target < pe.NumPEs(); target++ {
				pe.PutInt64(target, off, int64(100+target))
			}
		}
		pe.Barrier()
		if got := pe.LoadInt64(pe.Rank(), off); got != int64(100+pe.Rank()) {
			t.Errorf("PE %d: got %d, want %d", pe.Rank(), got, 100+pe.Rank())
		}
	})
}

func TestPutNBIInvisibleUntilQuiet(t *testing.T) {
	// The strict delivery model buffers non-blocking puts at the
	// initiator: the target's memory must not change until Quiet. The
	// check runs entirely on the initiating PE so it needs no cross-PE
	// synchronization (which would itself imply a quiet).
	run(t, 2, 2, func(pe *PE) {
		off := pe.Malloc(8)
		pe.Barrier()
		if pe.Rank() == 0 {
			pe.PutNBI(1, off, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			if pe.PendingNBI() != 1 {
				t.Errorf("PendingNBI = %d, want 1", pe.PendingNBI())
			}
			if got := pe.LoadInt64(1, off); got != 0 {
				t.Errorf("NBI put visible before quiet: %d", got)
			}
			pe.Quiet()
			if pe.PendingNBI() != 0 {
				t.Errorf("PendingNBI after Quiet = %d, want 0", pe.PendingNBI())
			}
			if got := pe.LoadInt64(1, off); got == 0 {
				t.Error("NBI put not visible after quiet")
			}
		}
		pe.Barrier()
		if pe.Rank() == 1 {
			if got := pe.LoadInt64(1, off); got == 0 {
				t.Error("NBI put not visible at target after sender's quiet+barrier")
			}
		}
	})
}

// TestPutNBISnapshotsAndRewinds pins the staging contract (DESIGN.md
// §8.3): PutNBI copies the caller's bytes, so overwriting them afterwards
// changes nothing; pending writes name arena offsets, so the arena may
// grow mid-batch; quiet delivers every payload and rewinds the arena, so
// a second round reuses it without touching what the first delivered;
// and at steady state a batch allocates nothing. (Failures are Errorf:
// a PE that left its body early would strand its peer in the barrier.)
func TestPutNBISnapshotsAndRewinds(t *testing.T) {
	sizes := []int{1, 7, 64, 300, 1000, 4096, 9, 2500, 16, 8192}
	total := 0
	for _, n := range sizes {
		total += n
	}
	fill := func(b []byte, round, k int) {
		for i := range b {
			b[i] = byte(round*31 + k*7 + i)
		}
	}
	run(t, 2, 2, func(pe *PE) {
		off := pe.Malloc(2 * total)
		pe.Barrier()
		if pe.Rank() == 0 {
			for round := 0; round < 2; round++ {
				at := off + round*total
				var firstCap int
				for k, n := range sizes {
					data := make([]byte, n)
					fill(data, round, k)
					pe.PutNBI(1, at, data)
					if k == 0 {
						firstCap = cap(pe.nbiStage)
					}
					fill(data, 99, k) // the caller reuses its slice at once
					at += n
				}
				if round == 0 && cap(pe.nbiStage) == firstCap {
					t.Errorf("arena never grew mid-batch (cap %d)", firstCap)
				}
				pe.Quiet()
				if len(pe.nbiStage) != 0 || pe.PendingNBI() != 0 {
					t.Errorf("round %d: quiet left %d staged bytes, %d pending", round, len(pe.nbiStage), pe.PendingNBI())
				}
				for r := 0; r <= round; r++ {
					at := off + r*total
					for k, n := range sizes {
						got, want := make([]byte, n), make([]byte, n)
						pe.rawRead(1, at, got)
						fill(want, r, k)
						if string(got) != string(want) {
							t.Errorf("after round %d: round %d put %d (%d B) not intact at its target", round, r, k, n)
						}
						at += n
					}
				}
			}
		}
		pe.Barrier()
	})

	run(t, 1, 1, func(pe *PE) {
		off := pe.Malloc(16 * 64)
		data := make([]byte, 64)
		batch := func() {
			for k := 0; k < 16; k++ {
				pe.PutNBI(0, off+k*64, data)
			}
			pe.Quiet()
		}
		batch() // sizes the arena and the pending list
		if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
			t.Errorf("PutNBI x16 + Quiet allocates %.1f times at steady state, want 0", allocs)
		}
	})
}

// TestWordAccessZeroAlloc: loading or putting a peer's heap word, the
// per-message floor's heap access, allocates nothing.
func TestWordAccessZeroAlloc(t *testing.T) {
	for name, put := range map[string]bool{"LoadInt64": false, "PutInt64Foreign": true} {
		t.Run(name, func(t *testing.T) {
			wordAccess(t, put, func(op func()) {
				if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
					t.Errorf("%s allocates %.1f times, want 0", name, allocs)
				}
			})
		})
	}
}

func TestBarrierImpliesQuiet(t *testing.T) {
	run(t, 2, 2, func(pe *PE) {
		off := pe.Malloc(8)
		pe.Barrier()
		if pe.Rank() == 0 {
			pe.PutNBI(1, off, []byte{9, 0, 0, 0, 0, 0, 0, 0})
		}
		pe.Barrier()
		if pe.Rank() == 1 {
			if got := pe.LoadInt64(1, off); got != 9 {
				t.Errorf("after barrier, got %d want 9", got)
			}
		}
	})
}

func TestGetRoundTrip(t *testing.T) {
	run(t, 4, 2, func(pe *PE) {
		off := pe.Malloc(8)
		pe.StoreInt64Local(off, int64(pe.Rank()*11))
		pe.Barrier()
		next := (pe.Rank() + 1) % pe.NumPEs()
		if got := pe.GetInt64(next, off); got != int64(next*11) {
			t.Errorf("PE %d GetInt64(%d) = %d, want %d", pe.Rank(), next, got, next*11)
		}
	})
}

func TestAtomicFetchAdd(t *testing.T) {
	var final int64
	run(t, 8, 4, func(pe *PE) {
		off := pe.Malloc(8)
		pe.Barrier()
		for i := 0; i < 100; i++ {
			pe.AtomicFetchAddInt64(0, off, 1)
		}
		pe.Barrier()
		if pe.Rank() == 0 {
			final = pe.LoadInt64(0, off)
		}
	})
	if final != 800 {
		t.Fatalf("atomic sum = %d, want 800", final)
	}
}

func TestAllReduce(t *testing.T) {
	run(t, 6, 3, func(pe *PE) {
		r := int64(pe.Rank())
		if got := pe.AllReduceInt64(OpSum, r); got != 15 {
			t.Errorf("sum = %d, want 15", got)
		}
		if got := pe.AllReduceInt64(OpMax, r); got != 5 {
			t.Errorf("max = %d, want 5", got)
		}
		if got := pe.AllReduceInt64(OpMin, r+10); got != 10 {
			t.Errorf("min = %d, want 10", got)
		}
	})
}

func TestBroadcast(t *testing.T) {
	run(t, 4, 2, func(pe *PE) {
		v := int64(-1)
		if pe.Rank() == 3 {
			v = 42
		}
		if got := pe.BroadcastInt64(3, v); got != 42 {
			t.Errorf("PE %d broadcast got %d, want 42", pe.Rank(), got)
		}
	})
}

func TestAllGather(t *testing.T) {
	run(t, 4, 2, func(pe *PE) {
		vals := pe.AllGather(pe.Rank() * 7)
		for i, v := range vals {
			if v.(int) != i*7 {
				t.Errorf("AllGather[%d] = %v, want %d", i, v, i*7)
			}
		}
	})
}

func TestCopyLocalSameNodeOnly(t *testing.T) {
	run(t, 4, 2, func(pe *PE) {
		off := pe.Malloc(8)
		pe.Barrier()
		if pe.Rank() == 0 {
			pe.CopyLocal(1, off, []byte{7, 0, 0, 0, 0, 0, 0, 0}) // same node: ok
			func() {
				defer func() {
					if recover() == nil {
						t.Error("CopyLocal across nodes should panic")
					}
				}()
				pe.CopyLocal(2, off, []byte{7, 0, 0, 0, 0, 0, 0, 0})
			}()
		}
		pe.Barrier()
		if pe.Rank() == 1 {
			if got := pe.LoadInt64(1, off); got != 7 {
				t.Errorf("CopyLocal value = %d, want 7", got)
			}
		}
	})
}

func TestWaitUntil(t *testing.T) {
	run(t, 2, 2, func(pe *PE) {
		off := pe.Malloc(8)
		pe.Barrier()
		if pe.Rank() == 0 {
			got := pe.WaitUntilInt64(off, CmpGe, 5)
			if got < 5 {
				t.Errorf("WaitUntil returned %d before condition held", got)
			}
		} else {
			for v := int64(1); v <= 5; v++ {
				pe.PutInt64(0, off, v)
			}
		}
		pe.Barrier()
	})
}

func TestWaitCmpOperators(t *testing.T) {
	cases := []struct {
		cmp  WaitCmp
		a, b int64
		want bool
	}{
		{CmpEq, 3, 3, true}, {CmpEq, 3, 4, false},
		{CmpNe, 3, 4, true}, {CmpNe, 3, 3, false},
		{CmpGt, 5, 4, true}, {CmpGt, 4, 4, false},
		{CmpGe, 4, 4, true}, {CmpGe, 3, 4, false},
		{CmpLt, 3, 4, true}, {CmpLt, 4, 4, false},
		{CmpLe, 4, 4, true}, {CmpLe, 5, 4, false},
	}
	for _, tc := range cases {
		if got := tc.cmp.holds(tc.a, tc.b); got != tc.want {
			t.Errorf("cmp %d: holds(%d,%d) = %v, want %v", tc.cmp, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	run(t, 4, 4, func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Charge(1_000_000)
		}
		pe.Barrier()
		if now := pe.Clock().Now(); now < 1_000_000 {
			t.Errorf("PE %d clock %d: barrier should advance to straggler's 1000000", pe.Rank(), now)
		}
	})
}

func TestTransferCostsChargeClock(t *testing.T) {
	run(t, 4, 2, func(pe *PE) {
		off := pe.Malloc(1024)
		pe.Barrier()
		if pe.Rank() == 0 {
			before := pe.Clock().Now()
			pe.Put(2, off, make([]byte, 1024)) // inter-node
			interCost := pe.Clock().Now() - before

			before = pe.Clock().Now()
			pe.Put(1, off, make([]byte, 1024)) // intra-node
			intraCost := pe.Clock().Now() - before

			if interCost <= intraCost {
				t.Errorf("inter-node cost (%d) should exceed intra-node (%d)", interCost, intraCost)
			}
		}
		pe.Barrier()
	})
}
