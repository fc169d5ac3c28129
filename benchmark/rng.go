package main

import (
	"math"
	"sort"
)

// splitmix64 is specified bit for bit, so the inputs a seed produces are
// the same on every platform and Go version. internal/graph, internal/apps
// and cmd/loadgen each keep an unexported copy; the benchmark needs its
// own because it may import only what those packages export.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (s *splitmix64) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// workloadStream derives the one stream a workload draws all its inputs
// from (R-MAT seed, ISort key seed, request sequences): the benchmark
// seed mixed with the workload's name, so workloads do not share inputs
// and adding a workload does not shift another's.
func workloadStream(seed uint64, workload string) *splitmix64 {
	h := seed
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	s := &splitmix64{state: h}
	s.next()
	return s
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s
// by inverse-CDF lookup over a cumulative table.
type zipf struct {
	cum []float64
	rng *splitmix64
}

func newZipf(n int, s float64, rng *splitmix64) *zipf {
	cum := make([]float64, n)
	var total float64
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum, rng: rng}
}

func (z *zipf) draw() int {
	i := sort.SearchFloat64s(z.cum, z.rng.float64())
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
