package apps

import (
	"fmt"

	"actorprof/internal/actor"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
)

// PermutationConfig parameterizes the distributed random permutation.
type PermutationConfig struct {
	// SlotsPerPE is each PE's share of the permutation target array;
	// the permutation has NumPEs * SlotsPerPE elements, and each PE
	// contributes that many values.
	SlotsPerPE int
	// Seed drives the dart throwing.
	Seed uint64
}

// PermutationResult reports one PE's view.
type PermutationResult struct {
	// Slots is this PE's slice of the permutation (global values).
	Slots []int64
	// Rounds is the number of dart-throwing rounds until all values
	// landed.
	Rounds int
}

// Permutation runs the bale "randperm" kernel as an FA-BSP program with
// the dart-throwing algorithm: every PE repeatedly throws its values at
// random slots of the distributed target array; a slot's owner accepts
// the first dart and rejects the rest, and rejected darts are re-thrown
// in the next round. Mailbox 0 carries darts, mailbox 1 carries
// rejections; a round ends when both quiesce.
//
// The result is a uniformly-ish random permutation of 0..N-1, validated
// by the caller as a bijection.
func Permutation(rt *actor.Runtime, cfg PermutationConfig) (PermutationResult, error) {
	if cfg.SlotsPerPE <= 0 {
		return PermutationResult{}, fmt.Errorf("apps: SlotsPerPE must be positive, got %d", cfg.SlotsPerPE)
	}
	pe := rt.PE()
	npes := pe.NumPEs()
	me := pe.Rank()
	total := int64(npes) * int64(cfg.SlotsPerPE)

	slots := make([]int64, cfg.SlotsPerPE)
	for i := range slots {
		slots[i] = -1
	}

	// The values this PE still has to place.
	pending := make([]int64, cfg.SlotsPerPE)
	for i := range pending {
		pending[i] = int64(me*cfg.SlotsPerPE + i)
	}

	rng := splitmix{state: cfg.Seed ^ (uint64(me)*0x9e3779b97f4a7c15 + 1)}
	rounds := 0
	const (
		mbDart   = 0
		mbReject = 1
	)
	for {
		var rejected []int64
		sel, err := actor.NewSelector(rt, 2, actor.PairCodec())
		if err != nil {
			return PermutationResult{}, fmt.Errorf("apps: permutation selector: %w", err)
		}
		dartWork := papi.Work{Ins: 10, LstIns: 3, BrMsp: 1, Cyc: 7}
		rejectWork := papi.Work{Ins: 6, LstIns: 2, Cyc: 4}
		// Batched darts: contested slots send rejections from inside the
		// batch invocation, exercising the re-entrant Send path.
		sel.ProcessBatch(mbDart, func(msgs []actor.Pair, srcPEs []int) {
			rt.WorkN(dartWork, len(msgs))
			for i, msg := range msgs {
				slot, val := msg.A, msg.B
				if slots[slot] < 0 {
					slots[slot] = val
				} else {
					sel.Send(mbReject, actor.Pair{A: 0, B: val}, srcPEs[i])
				}
			}
		})
		sel.ProcessBatch(mbReject, func(msgs []actor.Pair, srcPEs []int) {
			rt.WorkN(rejectWork, len(msgs))
			for _, msg := range msgs {
				rejected = append(rejected, msg.B)
			}
		})
		rt.Finish(func() {
			sel.Start()
			for _, val := range pending {
				t := int64(rng.next() % uint64(total))
				dst := int(t) / cfg.SlotsPerPE
				slot := t % int64(cfg.SlotsPerPE)
				sel.Send(mbDart, actor.Pair{A: slot, B: val}, dst)
			}
			sel.Done(mbDart)
			for !sel.MailboxComplete(mbDart) {
				sel.Progress()
			}
			sel.Done(mbReject)
		})
		rounds++
		pending = rejected
		left := pe.AllReduceInt64(shmem.OpSum, int64(len(pending)))
		if left == 0 {
			break
		}
		if rounds > 64*cfg.SlotsPerPE {
			return PermutationResult{}, fmt.Errorf("apps: permutation did not converge after %d rounds", rounds)
		}
	}
	return PermutationResult{Slots: slots, Rounds: rounds}, nil
}
