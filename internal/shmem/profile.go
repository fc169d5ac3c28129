package shmem

import (
	"fmt"
	"sort"
	"sync"
)

// Routine identifies an OpenSHMEM API routine for the profiling
// interface.
type Routine int

// Profiled routines.
const (
	RoutinePut Routine = iota
	RoutinePutNBI
	RoutineGet
	RoutineQuiet
	RoutineAtomicFetchAdd
	RoutineCopyLocal
	RoutineReadLocal
	RoutineBarrier
	numRoutines
)

var routineNames = [...]string{
	RoutinePut:            "shmem_putmem",
	RoutinePutNBI:         "shmem_putmem_nbi",
	RoutineGet:            "shmem_getmem",
	RoutineQuiet:          "shmem_quiet",
	RoutineAtomicFetchAdd: "shmem_atomic_fetch_add",
	RoutineCopyLocal:      "shmem_ptr_memcpy",
	RoutineReadLocal:      "shmem_ptr_read",
	RoutineBarrier:        "shmem_barrier_all",
}

// String returns the OpenSHMEM spelling of the routine.
func (r Routine) String() string {
	if r < 0 || r >= numRoutines {
		return fmt.Sprintf("Routine(%d)", int(r))
	}
	return routineNames[r]
}

// APIProfile is the simulation's answer to the OpenSHMEM Profiling
// Interface the paper's Section V-B proposes (the pshmem analogue of
// PMPI): every RMA/sync routine is wrapped and counted per PE, with
// payload bytes where applicable. Crucially - and this is the gap the
// paper documents in score-p, TAU, CrayPat, and VTune - the wrappers
// capture shmem_putmem_nbi and shmem_quiet, the non-blocking routines
// Conveyors lives on.
//
// Enable by setting Config.Profile before Run; read per-PE counts after.
type APIProfile struct {
	mu     sync.Mutex
	counts map[int]*[numRoutines]int64
	bytes  map[int]*[numRoutines]int64
}

// NewAPIProfile creates an empty profile.
func NewAPIProfile() *APIProfile {
	return &APIProfile{
		counts: make(map[int]*[numRoutines]int64),
		bytes:  make(map[int]*[numRoutines]int64),
	}
}

func (p *APIProfile) record(pe int, r Routine, n int) {
	p.mu.Lock()
	c := p.counts[pe]
	if c == nil {
		c = new([numRoutines]int64)
		p.counts[pe] = c
		p.bytes[pe] = new([numRoutines]int64)
	}
	c[r]++
	p.bytes[pe][r] += int64(n)
	p.mu.Unlock()
}

// Count returns how many times PE pe invoked routine r.
func (p *APIProfile) Count(pe int, r Routine) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.counts[pe]; c != nil {
		return c[r]
	}
	return 0
}

// Bytes returns the total payload bytes PE pe moved with routine r.
func (p *APIProfile) Bytes(pe int, r Routine) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b := p.bytes[pe]; b != nil {
		return b[r]
	}
	return 0
}

// TotalCount sums a routine's invocations over all PEs.
func (p *APIProfile) TotalCount(r Routine) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t int64
	for _, c := range p.counts {
		t += c[r]
	}
	return t
}

// Report renders the per-routine totals, busiest routine first - the
// view a PMPI/pshmem tool would print.
func (p *APIProfile) Report() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	type row struct {
		r     Routine
		n, by int64
	}
	var rows []row
	for r := Routine(0); r < numRoutines; r++ {
		var n, by int64
		for _, c := range p.counts {
			n += c[r]
		}
		for _, b := range p.bytes {
			by += b[r]
		}
		if n > 0 {
			rows = append(rows, row{r, n, by})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	out := "OpenSHMEM profiling interface (all PEs)\n"
	for _, rw := range rows {
		out += fmt.Sprintf("  %-24s calls=%-10d bytes=%d\n", rw.r, rw.n, rw.by)
	}
	return out
}
