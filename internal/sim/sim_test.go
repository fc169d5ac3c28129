package sim

import (
	"testing"
	"testing/quick"
)

func TestMachineValidate(t *testing.T) {
	good := Machine{NumPEs: 32, PEsPerNode: 16}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid machine rejected: %v", err)
	}
	for _, bad := range []Machine{
		{NumPEs: 0, PEsPerNode: 1},
		{NumPEs: 4, PEsPerNode: 0},
		{NumPEs: 7, PEsPerNode: 4},
		{NumPEs: -4, PEsPerNode: 4},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("machine %+v should be invalid", bad)
		}
	}
}

func TestMachineTopology(t *testing.T) {
	m := Machine{NumPEs: 32, PEsPerNode: 16}
	if m.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
	if m.NodeOf(15) != 0 || m.NodeOf(16) != 1 {
		t.Fatal("NodeOf wrong at the boundary")
	}
	if m.LocalRank(17) != 1 {
		t.Fatalf("LocalRank(17) = %d", m.LocalRank(17))
	}
	if !m.SameNode(0, 15) || m.SameNode(15, 16) {
		t.Fatal("SameNode wrong")
	}
}

func TestMachineTopologyProperty(t *testing.T) {
	// Property: pe == NodeOf(pe)*PEsPerNode + LocalRank(pe).
	f := func(peRaw uint16, perRaw uint8) bool {
		per := int(perRaw%32) + 1
		nodes := 4
		m := Machine{NumPEs: per * nodes, PEsPerNode: per}
		pe := int(peRaw) % m.NumPEs
		return m.NodeOf(pe)*m.PEsPerNode+m.LocalRank(pe) == pe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelTransfers(t *testing.T) {
	c := DefaultCostModel()
	if c.NetworkTransferCost(1024) <= c.LocalTransferCost(1024) {
		t.Error("network transfers must cost more than local copies")
	}
	// Latency dominates for small buffers.
	if c.NetworkTransferCost(8)-c.NetworkLatency > c.NetworkLatency {
		t.Error("per-byte cost should not dominate an 8-byte transfer")
	}
	if got := c.NetworkTransferCost(100); got != c.NetworkLatency+100*c.NetworkPerByte {
		t.Errorf("NetworkTransferCost = %d", got)
	}
}

func TestInstructionCost(t *testing.T) {
	c := DefaultCostModel()
	// Default model: IPC 2 -> 100 instructions = 50 cycles.
	if got := c.InstructionCost(100); got != 50 {
		t.Errorf("InstructionCost(100) = %d, want 50", got)
	}
	zeroScale := CostModel{InstructionCycles: 3}
	if got := zeroScale.InstructionCost(10); got != 30 {
		t.Errorf("unscaled InstructionCost = %d, want 30", got)
	}
}

func TestClockVirtualChargesOnly(t *testing.T) {
	c := NewClock(Virtual)
	if c.Now() != 0 {
		t.Fatalf("fresh virtual clock = %d", c.Now())
	}
	c.Charge(100)
	c.Charge(-50) // ignored
	if c.Now() != 100 {
		t.Fatalf("clock = %d, want 100", c.Now())
	}
	c.AdvanceTo(500)
	if c.Now() != 500 {
		t.Fatalf("AdvanceTo: clock = %d, want 500", c.Now())
	}
	c.AdvanceTo(10) // backwards: no-op
	if c.Now() != 500 {
		t.Fatalf("AdvanceTo backwards moved the clock: %d", c.Now())
	}
}
