package actor

import (
	"testing"

	"actorprof/internal/shmem"
)

// Codec Encode/Decode of fixed-size messages must be allocation-free:
// they run once per message on both the send and dispatch hot paths.

func TestCodecEncodeDecodeZeroAlloc(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		codec := Int64Codec()
		buf := make([]byte, codec.Size)
		var sink int64
		allocs := testing.AllocsPerRun(100, func() {
			codec.Encode(buf, 42)
			sink = codec.Decode(buf)
		})
		if allocs != 0 {
			t.Errorf("Int64Codec round trip allocated %.3f times per run, want 0", allocs)
		}
		if sink != 42 {
			t.Fatal("corrupted")
		}
	})
	t.Run("triple", func(t *testing.T) {
		codec := TripleCodec()
		buf := make([]byte, codec.Size)
		var sink Triple
		allocs := testing.AllocsPerRun(100, func() {
			codec.Encode(buf, Triple{A: 1, B: 2, C: 3})
			sink = codec.Decode(buf)
		})
		if allocs != 0 {
			t.Errorf("TripleCodec round trip allocated %.3f times per run, want 0", allocs)
		}
		if sink.C != 3 {
			t.Fatal("corrupted")
		}
	})
}

// Handler dispatch on the drained-buffer path must be allocation-free
// once the conveyor's pools reach their high-water mark: Send encodes
// into the aggregation slot, the self-send buffer moves through the
// landing zone, and drain decodes borrowed views off the delivery ring.
func TestHandlerDispatchZeroAlloc(t *testing.T) {
	count := 0
	err := shmem.Run(cfg(1, 1), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, err := NewActor(rt, Int64Codec())
		if err != nil {
			panic(err)
		}
		sel.Process(0, func(int64, int) { count++ })
		rt.Finish(func() {
			sel.Start()
			// One burst comfortably past BufferItems forces full
			// aggregate-transfer-dispatch cycles.
			burst := func() {
				for m := 0; m < 256; m++ {
					sel.Send(0, int64(m), 0)
				}
				sel.Progress()
			}
			burst() // warm pools and the delivery ring
			allocs := testing.AllocsPerRun(10, burst)
			if allocs != 0 {
				t.Errorf("send/dispatch burst allocated %.1f times per run, want 0", allocs)
			}
			sel.Done(0)
		})
		rt.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("no messages dispatched")
	}
}

// TestRuntimeWorkZeroAlloc: reporting a message's work, the price every
// handler pays per message, allocates nothing.
func TestRuntimeWorkZeroAlloc(t *testing.T) {
	runtimeWork(t, func(op func()) {
		if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
			t.Errorf("Runtime.Work allocated %.3f times per call, want 0", allocs)
		}
	})
}
