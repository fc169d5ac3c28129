package graph

import (
	"fmt"

	"actorprof/internal/stats"
)

// RMATConfig parameterizes the recursive-matrix (R-MAT) generator. The
// paper's case study uses the graph500 standard: scale 16, edge factor
// 16, A=0.57, B=C=0.19, D=0.05.
type RMATConfig struct {
	// Scale: the graph has 2^Scale vertices.
	Scale int
	// EdgeFactor: EdgeFactor * 2^Scale undirected edges are sampled
	// (before dedup and self-loop removal).
	EdgeFactor int
	// A, B, C, D are the quadrant probabilities; they must be positive
	// and sum to ~1.
	A, B, C, D float64
	// Seed drives the deterministic generator.
	Seed uint64
}

// Graph500 returns the graph500-standard configuration at the given
// scale and edge factor (A=0.57, B=C=0.19, D=0.05), as used in the paper.
func Graph500(scale, edgeFactor int, seed uint64) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgeFactor: edgeFactor,
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Seed: seed,
	}
}

// Validate checks the configuration.
func (c RMATConfig) Validate() error {
	if c.Scale <= 0 || c.Scale > 30 {
		return fmt.Errorf("graph: scale %d out of supported range (1..30)", c.Scale)
	}
	if c.EdgeFactor <= 0 {
		return fmt.Errorf("graph: edge factor must be positive, got %d", c.EdgeFactor)
	}
	sum := c.A + c.B + c.C + c.D
	if c.A <= 0 || c.B <= 0 || c.C <= 0 || c.D <= 0 || sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("graph: quadrant probabilities must be positive and sum to 1, got %v+%v+%v+%v=%v",
			c.A, c.B, c.C, c.D, sum)
	}
	return nil
}

// GenerateRMAT samples an R-MAT graph and returns its lower-triangular
// CSR. Generation is deterministic in the config (including Seed).
func GenerateRMAT(cfg RMATConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int64(1) << cfg.Scale
	m := n * int64(cfg.EdgeFactor)
	rng := stats.SplitMix64(cfg.Seed ^ 0x5851f42d4c957f2d)
	// One draw r per level picks a quadrant: below A neither bit, below
	// A+B v's bit, below A+B+C u's bit, else both. The bounds are summed
	// as the quadrant walk sums them, and the bits are taken without a
	// branch: u's is r >= A+B, v's is (r >= A) != (r >= A+B) or r >= A+B+C.
	ab, abc := cfg.A+cfg.B, cfg.A+cfg.B+cfg.C
	edges := make([]Edge, m)
	for e := range edges {
		var u, v int64
		for level := 0; level < cfg.Scale; level++ {
			r := rng.Float64()
			uBit := bit(r >= ab)
			vBit := (bit(r >= cfg.A) ^ uBit) | bit(r >= abc)
			u, v = u<<1|uBit, v<<1|vBit
		}
		edges[e] = Edge{U: u, V: v}
	}
	return NewFromEdges(n, edges)
}

// bit is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func bit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
