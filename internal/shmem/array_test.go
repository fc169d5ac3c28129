package shmem

import "testing"

func TestInt64ArrayLocalOps(t *testing.T) {
	run(t, 2, 2, func(pe *PE) {
		a := AllocInt64Array(pe, 10)
		if a.Len() != 10 {
			t.Errorf("Len = %d", a.Len())
		}
		for i := 0; i < 10; i++ {
			if a.Get(i) != 0 {
				t.Errorf("fresh array element %d = %d", i, a.Get(i))
			}
			a.Set(i, int64(i*i))
		}
		local := a.Local()
		for i, v := range local {
			if v != int64(i*i) {
				t.Errorf("Local[%d] = %d", i, v)
			}
		}
		pe.Barrier()
	})
}

func TestInt64ArrayRemoteOps(t *testing.T) {
	run(t, 4, 2, func(pe *PE) {
		a := AllocInt64Array(pe, 4)
		pe.Barrier()
		next := (pe.Rank() + 1) % 4
		pe.PutInt64(next, a.off, int64(100+pe.Rank()))
		a.AddRemote(next, 1, int64(pe.Rank()+1))
		pe.Barrier()
		prev := (pe.Rank() + 3) % 4
		if got := a.Get(0); got != int64(100+prev) {
			t.Errorf("PE %d element 0 = %d, want %d", pe.Rank(), got, 100+prev)
		}
		if got := a.Get(1); got != int64(prev+1) {
			t.Errorf("PE %d element 1 = %d, want %d", pe.Rank(), got, prev+1)
		}
		if got := pe.GetInt64(next, a.off); got != int64(100+pe.Rank()) {
			t.Errorf("GetInt64 = %d", got)
		}
		pe.Barrier()
	})
}

func TestInt64ArrayWaitUntil(t *testing.T) {
	run(t, 2, 2, func(pe *PE) {
		a := AllocInt64Array(pe, 1)
		pe.Barrier()
		if pe.Rank() == 0 {
			if got := pe.WaitUntilInt64(a.off, CmpEq, 42); got != 42 {
				t.Errorf("WaitUntilInt64 = %d", got)
			}
		} else {
			pe.PutInt64(0, a.off, 42)
		}
		pe.Barrier()
	})
}

func TestInt64ArrayBoundsPanic(t *testing.T) {
	run(t, 1, 1, func(pe *PE) {
		a := AllocInt64Array(pe, 3)
		defer func() {
			if recover() == nil {
				t.Error("out-of-range access should panic")
			}
		}()
		a.Get(3)
	})
}

func TestAllocInt64ArraySymmetric(t *testing.T) {
	offs := make([]int, 4)
	run(t, 4, 2, func(pe *PE) {
		a := AllocInt64Array(pe, 5)
		offs[pe.Rank()] = a.off
		pe.Barrier()
	})
	for i := 1; i < 4; i++ {
		if offs[i] != offs[0] {
			t.Fatalf("offsets differ: %v", offs)
		}
	}
}
