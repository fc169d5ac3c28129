// Package fault is the deterministic fault-injection and
// schedule-perturbation layer of the simulated FA-BSP runtime.
//
// The runtime (shmem, conveyor, actor) exposes explicit injection hooks
// at the points where real Actor-on-PGAS systems are schedule-sensitive:
// non-blocking put issue, quiet completion, barrier arrival, conveyor
// buffer transfer, aggregation-capacity selection, progress polls, yield
// points, and handler dispatch. An Injector installed in shmem.Config
// decides, per hook invocation, whether to perturb - stretch a virtual
// clock, stall a completion, shrink a buffer generation, or shake the
// goroutine schedule with extra yields.
//
// Determinism is the design center. Every decision is a pure function of
// (seed, PE, site, index, args): no global RNG state, no wall clocks, no
// ordering dependence between PEs. Sites split into two classes:
//
//   - Deterministic sites (SitePutNBI .. SiteBufferCap) fire in a
//     per-PE order fixed by program structure (put counts, barrier
//     counts, per-channel buffer sequence numbers), independent of
//     goroutine scheduling. Decisions at these sites may charge virtual
//     cycles and are recorded by Recorder; two runs with the same seed
//     produce identical per-PE event logs.
//   - Schedule sites (SiteAdvance .. SiteHandler) fire at
//     scheduling-dependent rates (poll loops, spin waits). Decisions at
//     these sites must only perturb the goroutine schedule (extra
//     yields), never the virtual clocks - otherwise Virtual-timing
//     determinism would be lost - and they are never logged.
//
// The zero Injector (nil) costs one nil-interface check per hook, so an
// uninstrumented run pays effectively nothing.
package fault

// Site identifies one injection hook point in the runtime. The ordering
// is load-bearing: sites up to and including SiteBufferCap are
// deterministic (loggable), later ones are schedule-only.
type Site int

const (
	// SitePutNBI fires when shmem.PutNBI buffers a non-blocking put.
	// Index: per-PE NBI-put ordinal. Arg: target PE. Arg2: bytes.
	// A delay models a NIC that starts streaming late.
	SitePutNBI Site = iota
	// SiteQuiet fires when a quiet/fence actually completes outstanding
	// non-blocking puts (calls with nothing pending do not fire, so the
	// index is program-determined). Index: per-PE flushing-quiet
	// ordinal. Arg: buffered puts. Arg2: buffered bytes.
	// A delay models a stalled nonblock_progress.
	SiteQuiet
	// SiteBarrier fires on barrier arrival, before the clocks
	// synchronize. Index: per-PE barrier ordinal. A delay stretches this
	// PE's virtual clock, creating a straggler every peer pays for.
	SiteBarrier
	// SiteTransfer fires before a conveyor ships an aggregated buffer.
	// Index: the channel's buffer sequence number. Arg: hop target PE.
	// Arg2: buffer bytes. A delay models a slow landing zone.
	SiteTransfer
	// SiteBufferCap fires when a conveyor outgoing buffer starts a new
	// generation (first item after becoming empty) and selects the
	// generation's effective capacity, stressing partial buffers and
	// early flushes. Index: the channel's buffer sequence number. Arg:
	// hop target PE. Arg2: configured capacity.
	// Decision.Capacity in [1, Arg2] overrides; 0 keeps the default.
	SiteBufferCap
	// SiteAdvance fires on every conveyor Advance poll. Schedule-only.
	SiteAdvance
	// SiteYield fires in PE.Yield, the runtime's documented preemption
	// point (spin loops, progress waits). Schedule-only.
	SiteYield
	// SiteHandler fires before an actor message handler dispatch.
	// Schedule-only.
	SiteHandler

	// NumSites is the number of hook sites.
	NumSites int = iota
)

// String returns the site's name.
func (s Site) String() string {
	switch s {
	case SitePutNBI:
		return "put_nbi"
	case SiteQuiet:
		return "quiet"
	case SiteBarrier:
		return "barrier"
	case SiteTransfer:
		return "transfer"
	case SiteBufferCap:
		return "buffer_cap"
	case SiteAdvance:
		return "advance"
	case SiteYield:
		return "yield"
	case SiteHandler:
		return "handler"
	default:
		return "site?"
	}
}

// Deterministic reports whether the site's per-PE invocation sequence is
// fixed by program structure (and its decisions therefore loggable and
// allowed to charge virtual cycles).
func (s Site) Deterministic() bool { return s <= SiteBufferCap }

// Point identifies one hook invocation.
type Point struct {
	// PE is the rank of the processing element at the hook.
	PE int
	// Site is the hook location.
	Site Site
	// Index is the site-specific deterministic sequence number (see the
	// Site constants). For schedule-only sites it is a per-PE counter
	// whose value may differ between runs.
	Index int64
	// Arg and Arg2 carry site-specific context (see the Site constants).
	Arg  int64
	Arg2 int64
}

// Decision is what an injector tells the runtime to do at a hook.
// The zero Decision means "no perturbation".
type Decision struct {
	// DelayCycles are extra virtual cycles charged to the PE's clock.
	// Honored only at deterministic sites.
	DelayCycles int64
	// Yields is a number of extra scheduler yields (runtime.Gosched) to
	// perform, perturbing the goroutine interleaving without touching
	// virtual state.
	Yields int
	// Capacity, at SiteBufferCap, is the effective aggregation capacity
	// (in items) for the starting buffer generation; 0 keeps the
	// configured capacity. Clamped by the runtime to [1, configured].
	Capacity int
}

// IsZero reports whether the decision perturbs nothing.
func (d Decision) IsZero() bool { return d == Decision{} }

// Injector decides perturbations at runtime hooks. Implementations must
// be pure functions of the Point (plus their own immutable
// configuration): they are called concurrently from every PE goroutine
// and their determinism is what makes chaos schedules replayable.
type Injector interface {
	Decide(pt Point) Decision
}

// ClockSkewer is an optional Injector extension: a per-PE relative clock
// skew, applied to every Charge for the whole run (a persistently slow
// PE, as opposed to the point stalls of SiteBarrier). shmem.Run queries
// it once per PE at startup.
type ClockSkewer interface {
	// ClockSkewPercent returns the extra percent charged to every
	// Charge on the PE (0 = no skew, 50 = every cycle costs 1.5).
	ClockSkewPercent(pe int) int64
}

// --- deterministic hashing ------------------------------------------------

// mix64 is splitmix64's output permutation: a fast, well-distributed
// 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashPoint collapses (seed, point) into one well-mixed word. Every
// field gets its own odd multiplier so that points differing in a single
// field decorrelate.
func hashPoint(seed uint64, pt Point) uint64 {
	h := seed
	h = mix64(h ^ uint64(pt.PE)*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(pt.Site)*0xd1342543de82ef95)
	h = mix64(h ^ uint64(pt.Index)*0xa24baed4963ee407)
	h = mix64(h ^ uint64(pt.Arg)*0x8cb92ba72f3d8dd7)
	h = mix64(h ^ uint64(pt.Arg2)*0xda942042e4dd58b5)
	return h
}

// chance reports whether the event with probability prob (in [0, 1])
// fires for hash h, consuming the top 32 bits.
func chance(h uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return float64(h>>32)/float64(1<<32) < prob
}

// bounded maps hash h onto [1, max]; 0 when max <= 0.
func bounded(h uint64, max int64) int64 {
	if max <= 0 {
		return 0
	}
	return 1 + int64(h%uint64(max))
}
