// Package fixture: deliberate violations suppressed by directives, plus
// one violation left live to prove directives do not over-suppress.
package fixture

import "actorprof/internal/shmem"

func suppressedInline(pe *shmem.PE, base, i int) {
	pe.PutInt64(1, base+8*i, 7) //actorvet:ignore rawoffset
}

func suppressedLineAbove(pe *shmem.PE, base, i int) {
	//actorvet:ignore rawoffset slot layout is owned here
	pe.PutInt64(1, base+8*i, 7)
}

func suppressedAllRules(pe *shmem.PE, base, i int) {
	//actorvet:ignore
	pe.PutInt64(1, base+8*i, 7)
}

func wrongRuleDoesNotSuppress(pe *shmem.PE, base, i int) {
	pe.PutInt64(1, base+8*i, 7) //actorvet:ignore staleignore (line 22: still reported)
}
