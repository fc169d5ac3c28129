// Package sim provides the machine model underlying the simulated
// OpenSHMEM runtime: the grouping of processing elements (PEs) into
// cluster nodes, the cost model for intra- and inter-node data movement,
// and per-PE virtual cycle clocks.
//
// The paper's experiments ran on NERSC Perlmutter (AMD Milan nodes,
// Slingshot 11 network). This repository substitutes a single-process
// simulation; sim defines the knobs that preserve the *relative* cost
// structure the paper's profiles depend on: inter-node transfers are far
// more expensive than intra-node copies, per-transfer latency dwarfs
// per-byte cost for small buffers, and stragglers bound total time
// because BSP-style termination synchronizes every PE.
package sim

import "fmt"

// Machine describes the simulated cluster: how many PEs exist and how
// they are distributed over nodes. The paper's runs use 16 PEs on 1 node
// and 32 PEs on 2 nodes.
type Machine struct {
	// NumPEs is the total number of processing elements (OpenSHMEM
	// ranks). One actor instance runs per PE.
	NumPEs int
	// PEsPerNode is the number of PEs co-located on one cluster node.
	// PEs p with p/PEsPerNode equal share a node and communicate via
	// shared memory (shmem_ptr / memcpy) rather than the network.
	PEsPerNode int
}

// Validate checks the machine description for consistency.
func (m Machine) Validate() error {
	if m.NumPEs <= 0 {
		return fmt.Errorf("sim: NumPEs must be positive, got %d", m.NumPEs)
	}
	if m.PEsPerNode <= 0 {
		return fmt.Errorf("sim: PEsPerNode must be positive, got %d", m.PEsPerNode)
	}
	if m.NumPEs%m.PEsPerNode != 0 {
		return fmt.Errorf("sim: NumPEs (%d) must be a multiple of PEsPerNode (%d)",
			m.NumPEs, m.PEsPerNode)
	}
	return nil
}

// NumNodes returns the number of cluster nodes.
func (m Machine) NumNodes() int { return m.NumPEs / m.PEsPerNode }

// NodeOf returns the node index hosting PE pe.
func (m Machine) NodeOf(pe int) int { return pe / m.PEsPerNode }

// LocalRank returns pe's rank within its node.
func (m Machine) LocalRank(pe int) int { return pe % m.PEsPerNode }

// SameNode reports whether PEs a and b share a node.
func (m Machine) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// CostModel holds the cycle charges for simulated operations. All values
// are in cycles of the per-PE virtual clock (see Clock).
//
// Defaults are loosely calibrated to a Milan + Slingshot system at the
// 3 GHz reference frequency the trace exports convert cycles at: ~2 µs
// one-way small-message network latency, ~25 GB/s effective per-PE
// network bandwidth, and ~100 GB/s intra-node copy bandwidth.
type CostModel struct {
	// NetworkLatency is the fixed per-transfer charge for an inter-node
	// non-blocking put (start-up latency, rendezvous, NIC doorbell).
	NetworkLatency int64
	// NetworkPerByte is the additional per-byte charge of an inter-node
	// transfer (inverse bandwidth).
	NetworkPerByte int64
	// QuietLatency is the charge of a shmem_quiet, which must wait for
	// the completion of all outstanding non-blocking puts.
	QuietLatency int64
	// SignalLatency is the charge of the small signaling put issued by
	// conveyor nonblock_progress after quiet.
	SignalLatency int64
	// LocalCopyLatency is the fixed charge for an intra-node transfer
	// (memcpy via shmem_ptr): cache-line ping-pong and queue management.
	LocalCopyLatency int64
	// LocalCopyPerByte is the per-byte charge of an intra-node copy.
	LocalCopyPerByte int64
	// InstructionCycles charges the clock per simulated instruction
	// reported by the PAPI cost model, expressed as a rational
	// InstructionCycles = numerator cycles per InstructionScale
	// instructions (so that IPC > 1 is expressible in integers).
	InstructionCycles int64
	// InstructionScale divides the instruction count when charging;
	// cycles = ins * InstructionCycles / InstructionScale.
	InstructionScale int64
	// PollCycles is the charge for one unproductive progress poll
	// (checking signals/queues and finding nothing). It is *not* charged
	// by default: poll counts depend on goroutine scheduling, and
	// charging them would make Virtual-mode runs nondeterministic.
	// Waiting time is instead modelled by clock synchronization at
	// barriers.
	PollCycles int64
	// ItemIngestCycles is the per-item cost of receiving: parsing an
	// item out of a landed buffer and delivering or re-routing it. This
	// is conveyor-internal work and lands in the COMM regime.
	ItemIngestCycles int64
}

// DefaultCostModel returns the calibration used by the reproduced
// experiments. The absolute numbers are not the point (the paper's
// testbed is not reproducible); the ratios are chosen so that:
// inter-node latency >> intra-node latency, per-transfer cost >>
// per-byte cost at conveyor buffer sizes, and computation (MAIN/PROC)
// is small relative to communication, matching Figures 12-13.
func DefaultCostModel() CostModel {
	return CostModel{
		NetworkLatency:    6000, // ~2 µs at 3 GHz
		NetworkPerByte:    1,    // ~3 GB/s per-PE effective stream
		QuietLatency:      9000, // full fence: waits on all outstanding puts
		SignalLatency:     6000, // small put, same latency class
		LocalCopyLatency:  800,  // shared-memory handoff + queue management
		LocalCopyPerByte:  0,    // intra-node copies are bandwidth-cheap at these sizes
		InstructionCycles: 1,
		InstructionScale:  2, // IPC = 2
		PollCycles:        40,
		ItemIngestCycles:  80, // header parse + copy + queue append + pull
	}
}

// NetworkTransferCost returns the clock charge for an inter-node
// non-blocking put of n bytes.
func (c CostModel) NetworkTransferCost(n int) int64 {
	return c.NetworkLatency + int64(n)*c.NetworkPerByte
}

// LocalTransferCost returns the clock charge for an intra-node copy of
// n bytes.
func (c CostModel) LocalTransferCost(n int) int64 {
	return c.LocalCopyLatency + int64(n)*c.LocalCopyPerByte
}

// InstructionCost converts a simulated instruction count into cycles.
func (c CostModel) InstructionCost(ins int64) int64 {
	return PriceInstructions(ins, c.InstructionCycles, c.InstructionScale)
}

// PriceInstructions is InstructionCost for callers that keep a model's
// InstructionCycles and InstructionScale instead of the whole model (a
// CostModel is a dozen words and moves by value).
func PriceInstructions(ins, cycles, scale int64) int64 {
	if scale <= 0 {
		return ins * cycles
	}
	return ins * cycles / scale
}
