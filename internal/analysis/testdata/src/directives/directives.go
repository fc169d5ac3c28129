// Package fixture: //actorvet:ignore edge cases — multi-line statement
// coverage, block-scoped suppression, unknown rule names, stale ignores.
package fixture

import "actorprof/internal/shmem"

func multiLineStatement(pe *shmem.PE, base, i int) {
	//actorvet:ignore rawoffset the slot layout is owned here
	pe.PutInt64(1,
		base+8*i,
		7)
}

func blockScoped(pe *shmem.PE, base, i int) {
	//actorvet:ignore rawoffset rank 0's table is laid out by hand
	if pe.Rank() == 0 {
		pe.PutInt64(1, base+8*i, 7)
	}
}

func unknownRule(pe *shmem.PE, base, i int) {
	pe.PutInt64(1, base+8*i, 7) //actorvet:ignore nosuchrule
}

func staleDirective(pe *shmem.PE, off int) {
	pe.PutInt64(1, off, 7) //actorvet:ignore rawoffset an opaque offset, nothing to suppress
}

func staleWildcard(pe *shmem.PE) {
	pe.Quiet() //actorvet:ignore
}
