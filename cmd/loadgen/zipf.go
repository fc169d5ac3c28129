package main

import (
	"math"
	"sort"

	"actorprof/internal/stats"
)

// splitmix64 is stats.SplitMix64 with the draws a workload mix needs.
// A committed LOAD.json is reproducible from the seed it records, and
// per-client generators are derived from sequential seeds.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) rng() *stats.SplitMix64 { return (*stats.SplitMix64)(&s.state) }

// float64 returns a uniform draw in [0, 1).
func (s *splitmix64) float64() float64 { return s.rng().Float64() }

// intn returns a uniform draw in [0, n). The modulo bias is far below
// anything a workload mix could observe.
func (s *splitmix64) intn(n int) int { return int(s.rng().Next() % uint64(n)) }

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s
// by inverse-CDF lookup over a precomputed cumulative table. n is the
// target count (hundreds), so the table is small and a draw is one
// uniform plus a binary search.
type zipf struct {
	cum []float64
	rng *splitmix64
}

func newZipf(n int, s float64, rng *splitmix64) *zipf {
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum, rng: rng}
}

func (z *zipf) draw() int {
	return sort.SearchFloat64s(z.cum, z.rng.float64())
}
