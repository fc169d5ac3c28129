package stats

// SplitMix64 is the SplitMix64 generator; its value is its state. It is
// tiny, fast, and - unlike math/rand's default source - specified bit
// for bit, so every generated workload (graphs, app inputs, load mixes,
// chaos seeds) is a pure function of the seed on any platform.
// Sequential seeds give independent streams.
type SplitMix64 uint64

// Next advances the state and returns the next 64-bit draw.
func (s *SplitMix64) Next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}
