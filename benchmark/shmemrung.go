package main

// The replay reproduces the conveyor transport's own access pattern -
// length word, sequence word and payload at raw offsets inside a landing
// zone - because that pattern is what it measures; the typed Int64Array
// view cannot express it, exactly as in internal/conveyor/protocol.go.
//actorvet:ignore-file rawoffset

import "actorprof/internal/shmem"

// shmemRung replays the data movement the run's conveyors issued - the
// recorded number of buffers per PE pair, at their recorded mean size -
// straight onto the OpenSHMEM layer: three shmem_ptr copies per
// local_send, two non-blocking puts, a quiet and a signalling put per
// nonblock_send, one acknowledging put per buffer received, and the
// recorded number of barriers. Nothing waits for anything, so the rung
// is the cost of moving the bytes and no more.
func shmemRung(t traffic) error {
	npes := t.machine.NumPEs
	slot := 8 + 8 + max(t.localBytes, t.remoteBytes, 8)
	return shmem.Run(shmem.Config{Machine: t.machine}, func(pe *shmem.PE) {
		me := pe.Rank()
		zone := pe.Malloc(npes * slot)
		ack := pe.Malloc(npes * 8)
		barriers := t.barriersPerPE - 2 // each Malloc is one
		for i := 0; i < barriers/2; i++ {
			pe.Barrier()
		}
		local := make([]byte, t.localBytes)
		remote := make([]byte, t.remoteBytes)
		var word [8]byte
		mine := zone + me*slot
		roundRobin(t.localBufs[me], func(dst int) {
			pe.CopyLocal(dst, mine+16, local)
			pe.CopyLocal(dst, mine+8, word[:])
			pe.CopyLocal(dst, mine, word[:])
		})
		var seq int64
		roundRobin(t.remoteBufs[me], func(dst int) {
			pe.PutNBI(dst, mine+16, remote)
			pe.PutNBI(dst, mine+8, word[:])
			pe.Quiet()
			seq++
			pe.PutInt64(dst, mine, seq)
		})
		acks := column(t.localBufs, me)
		for src, n := range column(t.remoteBufs, me) {
			acks[src] += n
		}
		roundRobin(acks, func(src int) {
			seq++
			pe.PutInt64(src, ack+me*8, seq)
		})
		for i := barriers / 2; i < barriers; i++ {
			pe.Barrier()
		}
	})
}
